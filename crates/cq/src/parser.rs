//! Datalog-style parser for queries and view definitions.
//!
//! Grammar (following the paper's notation, §2.1):
//!
//! ```text
//! program  := rule (rule)*
//! rule     := atom ":-" atom ("," atom)* "."?
//! atom     := ident "(" terms? ")"
//! terms    := term ("," term)*
//! term     := IDENT | INTEGER
//! ```
//!
//! Identifiers beginning with an upper-case letter are **variables**;
//! identifiers beginning with a lower-case letter are **constants** (in
//! term position) or predicate names (in predicate position). `%` and `#`
//! start line comments.
//!
//! Every token carries a byte-range [`Span`]; the parser merges them so
//! each parsed rule records the span of its head and of every body atom
//! (see [`RuleSpans`]), letting diagnostics underline the offending atom.
//!
//! Identifiers are slices of the source — the lexer copies nothing — and
//! the parser is told *how to make a variable* ([`Variables`]): the
//! ordinary entry points intern each spelling ([`Interned`]); a caller
//! that works in its own variable space (the serving layer parses
//! straight into canonical variables) supplies its own numbering through
//! [`parse_query_with`] and keeps the spellings, so a variable name a
//! client invents never reaches the interner.

use crate::atom::Atom;
use crate::error::ParseError;
use crate::query::ConjunctiveQuery;
use crate::render::{write_rule, Spelled};
use crate::span::Span;
use crate::symbol::Symbol;
use crate::term::Term;
use crate::view::{View, ViewSet};

/// How a parse turns the spelling of a variable into a [`Symbol`], and
/// back again for the one error message that quotes a whole rule.
pub trait Variables<'a> {
    /// The variable spelled `spelling` (a slice of the source).
    fn make(&mut self, spelling: &'a str) -> Symbol;

    /// What the source called `v`, for a `v` that [`Variables::make`]
    /// returned.
    fn spelling(&self, v: Symbol) -> &str;
}

impl<'a, V: Variables<'a>> Variables<'a> for &mut V {
    fn make(&mut self, spelling: &'a str) -> Symbol {
        (**self).make(spelling)
    }

    fn spelling(&self, v: Symbol) -> &str {
        (**self).spelling(v)
    }
}

/// The default: a variable is its interned spelling.
pub struct Interned;

impl<'a> Variables<'a> for Interned {
    fn make(&mut self, spelling: &'a str) -> Symbol {
        Symbol::new(spelling)
    }

    fn spelling(&self, v: Symbol) -> &str {
        v.as_str()
    }
}

/// A parsed program: a list of rules in source order, plus the source
/// spans of each rule's head and body atoms (parallel to `rules`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// The rules, each a safe conjunctive query.
    pub rules: Vec<ConjunctiveQuery>,
    /// Per-rule atom spans; `spans[i]` describes `rules[i]`.
    pub spans: Vec<RuleSpans>,
}

/// Source spans for one rule: where the head and each body atom sit in
/// the original text. `body[j]` covers the rule's j-th body atom.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuleSpans {
    /// Span of the head atom.
    pub head: Span,
    /// Span of each body atom, in body order.
    pub body: Vec<Span>,
}

impl RuleSpans {
    /// The whole rule, head through last body atom.
    pub fn rule(&self) -> Span {
        self.body.iter().fold(self.head, |acc, s| acc.merge(*s))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Implies,
    Dot,
}

/// Tokenizes the whole input in one pass over its bytes, attaching the
/// byte span of each token.
///
/// Every token is ASCII, so a token's length in bytes is its width in
/// columns. The one thing the lexer steps over that may not be ASCII is
/// a comment, and it runs to the newline that resets the column, so no
/// column is ever counted across a multi-byte char — and the offset of
/// the next byte is always on a char boundary, which is where the one
/// non-ASCII char an error quotes is decoded. Errors report the position
/// the lexer has reached: past the `:` or the digits it consumed, at the
/// character it refuses.
fn tokenize(src: &str) -> Result<Vec<(Tok<'_>, Span)>, ParseError> {
    let bytes = src.as_bytes();
    // About two bytes a token in a rule; a line never has more tokens
    // than bytes, so this is at most half what growth would reach.
    let mut out = Vec::with_capacity(bytes.len() / 2);
    let (mut i, mut line, mut col) = (0, 1, 1);
    let run = |from: usize, keep: fn(&u8) -> bool| {
        bytes[from..]
            .iter()
            .position(|b| !keep(b))
            .unwrap_or(bytes.len() - from)
    };
    while let Some(&b) = bytes.get(i) {
        let (tok, len) = match b {
            b'\n' => {
                (i, line, col) = (i + 1, line + 1, 1);
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                (i, col) = (i + 1, col + 1);
                continue;
            }
            b'%' | b'#' => {
                i += run(i, |&b| b != b'\n');
                continue;
            }
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b',' => (Tok::Comma, 1),
            b'.' => (Tok::Dot, 1),
            b':' if bytes.get(i + 1) == Some(&b'-') => (Tok::Implies, 2),
            b':' => {
                return Err(ParseError::spanned(
                    Span::new(i, i + 1, line, col + 1),
                    "expected '-' after ':'",
                ))
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = 1 + run(i + 1, |b| b.is_ascii_alphanumeric() || *b == b'_');
                (Tok::Ident(&src[i..i + len]), len)
            }
            b if b.is_ascii_digit() || b == b'-' => {
                let len = 1 + run(i + 1, u8::is_ascii_digit);
                let text = &src[i..i + len];
                let at = Span::new(i, i + len, line, col + len);
                if text == "-" {
                    return Err(ParseError::spanned(at, "expected digits after '-'"));
                }
                let value = text.parse::<i64>().map_err(|_| {
                    ParseError::spanned(at, format!("integer out of range: {text}"))
                })?;
                (Tok::Int(value), len)
            }
            _ => {
                let other = src[i..].chars().next().unwrap_or_default();
                return Err(ParseError::spanned(
                    Span::new(i, i + other.len_utf8(), line, col),
                    format!("unexpected character {other:?}"),
                ));
            }
        };
        out.push((tok, Span::new(i, i + len, line, col)));
        i += len;
        col += len;
    }
    Ok(out)
}

struct Parser<'a, V> {
    toks: Vec<(Tok<'a>, Span)>,
    pos: usize,
    vars: V,
}

impl<'a, V: Variables<'a>> Parser<'a, V> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    /// The span of the current token — or, at end of input, an empty
    /// span just past the last token.
    fn position(&self) -> Span {
        match self.toks.get(self.pos) {
            Some(&(_, s)) => s,
            None => match self.toks.last() {
                Some(&(_, s)) => Span::new(s.end, s.end, s.line, s.column + s.len()),
                None => Span::new(0, 0, 1, 1),
            },
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::spanned(self.position(), msg)
    }

    fn bump(&mut self) -> Option<(Tok<'a>, Span)> {
        let t = self.toks.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok<'a>, what: &str) -> Result<Span, ParseError> {
        match self.bump() {
            Some((t, s)) if t == want => Ok(s),
            Some((t, s)) => Err(ParseError::spanned(
                s,
                format!("expected {what}, found {t:?}"),
            )),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some((Tok::Ident(name), span)) => {
                let Some(first) = name.chars().next() else {
                    return Err(ParseError::spanned(span, "empty identifier"));
                };
                if first.is_ascii_uppercase() {
                    Ok(Term::Var(self.vars.make(name)))
                } else {
                    Ok(Term::cst(name))
                }
            }
            Some((Tok::Int(i), _)) => Ok(Term::int(i)),
            Some((t, s)) => Err(ParseError::spanned(
                s,
                format!("expected term, found {t:?}"),
            )),
            None => Err(self.err("expected term, found end of input")),
        }
    }

    /// Parses one atom and returns it with the span from its predicate
    /// name through its closing parenthesis.
    fn atom(&mut self) -> Result<(Atom, Span), ParseError> {
        let (name, name_span) = match self.bump() {
            Some((Tok::Ident(name), span)) => {
                let Some(first) = name.chars().next() else {
                    return Err(ParseError::spanned(span, "empty identifier"));
                };
                if first.is_ascii_uppercase() {
                    return Err(ParseError::spanned(
                        span,
                        format!("predicate names must start lower-case, found {name:?}"),
                    ));
                }
                (name, span)
            }
            Some((t, s)) => {
                return Err(ParseError::spanned(
                    s,
                    format!("expected predicate name, found {t:?}"),
                ))
            }
            None => return Err(self.err("expected predicate name, found end of input")),
        };
        self.expect(Tok::LParen, "'('")?;
        let mut terms = Vec::new();
        if self.peek() != Some(Tok::RParen) {
            loop {
                terms.push(self.term()?);
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        let close = self.expect(Tok::RParen, "')'")?;
        Ok((Atom::new(name, terms), name_span.merge(close)))
    }

    fn rule(&mut self) -> Result<(ConjunctiveQuery, RuleSpans), ParseError> {
        let (head, head_span) = self.atom()?;
        self.expect(Tok::Implies, "':-'")?;
        let mut body = Vec::new();
        let mut body_spans = Vec::new();
        let (first, first_span) = self.atom()?;
        body.push(first);
        body_spans.push(first_span);
        while self.peek() == Some(Tok::Comma) {
            self.bump();
            let (a, s) = self.atom()?;
            body.push(a);
            body_spans.push(s);
        }
        if self.peek() == Some(Tok::Dot) {
            self.bump();
        }
        let q = ConjunctiveQuery::new(head, body);
        if !q.is_safe() {
            // The rule is quoted as the source spelled it, whatever
            // symbols `vars` made of its variables.
            let mut message = String::from("unsafe rule (head variable not in body): ");
            let spell = |v: Symbol| self.vars.spelling(v);
            let _ = write_rule(&mut Spelled::new(&mut message, &spell), &q);
            return Err(ParseError::spanned(head_span, message));
        }
        Ok((
            q,
            RuleSpans {
                head: head_span,
                body: body_spans,
            },
        ))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut rules = Vec::new();
        let mut spans = Vec::new();
        while self.peek().is_some() {
            let (q, s) = self.rule()?;
            rules.push(q);
            spans.push(s);
        }
        Ok(Program { rules, spans })
    }
}

fn parser<'a, V: Variables<'a>>(src: &'a str, vars: V) -> Result<Parser<'a, V>, ParseError> {
    Ok(Parser {
        toks: tokenize(src)?,
        pos: 0,
        vars,
    })
}

/// Parses a whole program (one rule per `:-` clause, `.`-terminated or
/// newline-separated).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parser(src, Interned)?.program()
}

/// Parses a single rule as a conjunctive query.
pub fn parse_query(src: &str) -> Result<ConjunctiveQuery, ParseError> {
    parse_query_with(src, &mut Interned)
}

/// [`parse_query`] with the caller's own [`Variables`]: same grammar,
/// same errors, but each variable is whatever `vars` makes of its
/// spelling. `vars` is borrowed so the caller can read back what it
/// collected.
pub fn parse_query_with<'a, V: Variables<'a>>(
    src: &'a str,
    vars: &mut V,
) -> Result<ConjunctiveQuery, ParseError> {
    let mut p = parser(src, vars)?;
    let (q, _) = p.rule()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after rule"));
    }
    Ok(q)
}

/// Parses a program and wraps each rule as a view definition.
pub fn parse_views(src: &str) -> Result<ViewSet, ParseError> {
    let program = parse_program(src)?;
    Ok(ViewSet::from_views(
        program.rules.into_iter().map(View::new),
    ))
}

/// Parses a single atom such as `car(M, anderson)` (used for view-tuple
/// literals in tests).
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let mut p = parser(src, Interned)?;
    let (a, _) = p.atom()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after atom"));
    }
    Ok(a)
}

#[cfg(test)]
#[path = "../tests/reference/char_lexer.rs"]
mod char_lexer;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_car_loc_part() {
        let q =
            parse_query("q1(S, C) :- car(M, anderson), loc(anderson, C), part(S, M, C)").unwrap();
        assert_eq!(q.head.predicate.as_str(), "q1");
        assert_eq!(q.body.len(), 3);
        assert_eq!(q.body[0].terms[1], Term::cst("anderson"));
        assert_eq!(q.body[2].terms[0], Term::var("S"));
    }

    #[test]
    fn parses_program_with_comments_and_dots() {
        let p = parse_program(
            "% the five views of Example 1.1\n\
             v1(M, D, C) :- car(M, D), loc(D, C).\n\
             v3(S) :- car(M, a), loc(a, C), part(S, M, C). # inline trailing\n",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].head.arity(), 1);
    }

    #[test]
    fn program_spans_cover_each_atom() {
        let src = "q(X) :- a(X, Y), b(Y, X)";
        let p = parse_program(src).unwrap();
        assert_eq!(p.spans.len(), 1);
        let spans = &p.spans[0];
        assert_eq!(spans.head.slice(src), "q(X)");
        assert_eq!(spans.body[0].slice(src), "a(X, Y)");
        assert_eq!(spans.body[1].slice(src), "b(Y, X)");
        assert_eq!((spans.body[1].line, spans.body[1].column), (1, 18));
        assert_eq!(spans.rule().slice(src), src);
    }

    #[test]
    fn spans_track_lines() {
        let src = "% comment\nq(X) :-\n  a(X),\n  b(X).\n";
        let p = parse_program(src).unwrap();
        let spans = &p.spans[0];
        assert_eq!((spans.head.line, spans.head.column), (2, 1));
        assert_eq!((spans.body[0].line, spans.body[0].column), (3, 3));
        assert_eq!((spans.body[1].line, spans.body[1].column), (4, 3));
        assert_eq!(spans.body[1].slice(src), "b(X)");
    }

    #[test]
    fn parses_integers_and_negatives() {
        let q = parse_query("q(X) :- r(X, 7), s(-3, X)").unwrap();
        assert_eq!(q.body[0].terms[1], Term::int(7));
        assert_eq!(q.body[1].terms[0], Term::int(-3));
    }

    #[test]
    fn rejects_unsafe_rule() {
        let e = parse_query("q(X, Y) :- a(X)").unwrap_err();
        assert!(e.message.contains("unsafe"));
        // The error points at the head atom that exports the unbound var.
        assert_eq!((e.span.start, e.span.end), (0, 7));
    }

    /// Makes `V<n>` of the `n`-th distinct spelling, and remembers it.
    #[derive(Default)]
    struct Numbered<'a>(Vec<&'a str>);

    impl<'a> Variables<'a> for Numbered<'a> {
        fn make(&mut self, spelling: &'a str) -> Symbol {
            let n = self
                .0
                .iter()
                .position(|s| *s == spelling)
                .unwrap_or_else(|| {
                    self.0.push(spelling);
                    self.0.len() - 1
                });
            Symbol::new(&format!("V{n}"))
        }

        fn spelling(&self, v: Symbol) -> &str {
            self.0[v.as_str()[1..].parse::<usize>().unwrap()]
        }
    }

    #[test]
    fn a_callers_variables_replace_interning_and_errors_keep_the_sources_spellings() {
        let mut vars = Numbered::default();
        let q = parse_query_with("q(Out, x) :- a(In, Out), b(In, x)", &mut vars).unwrap();
        assert_eq!(q.to_string(), "q(V0, x) :- a(V1, V0), b(V1, x)");
        assert_eq!(vars.0, ["Out", "In"]);

        let src = "q(Out, Lost) :- a(In, Out)";
        let e = parse_query_with(src, &mut Numbered::default()).unwrap_err();
        assert_eq!(e, parse_query(src).unwrap_err());
        assert!(e.message.ends_with(": q(Out, Lost) :- a(In, Out)"), "{e}");
    }

    #[test]
    fn rejects_uppercase_predicate() {
        assert!(parse_query("q(X) :- Foo(X)").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("q(X) :- a(X) extra").is_err());
        assert!(parse_atom("a(X) b").is_err());
    }

    #[test]
    fn rejects_bad_tokens_with_position() {
        let e = parse_program("q(X) :- a(X), @(X)").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.column, 15);
        assert_eq!((e.span.start, e.span.end), (14, 15));
        assert!(e.message.contains("unexpected character"));
    }

    #[test]
    fn rejects_lone_colon_and_bare_minus() {
        assert!(parse_query("q(X) : a(X)").is_err());
        assert!(parse_query("q(X) :- a(-)").is_err());
    }

    #[test]
    fn zero_arity_atoms_parse() {
        let a = parse_atom("done()").unwrap();
        assert_eq!(a.arity(), 0);
    }

    #[test]
    fn views_round_trip_through_display() {
        let src = "v1(M, D, C) :- car(M, D), loc(D, C)";
        let vs = parse_views(src).unwrap();
        let printed = vs.to_string();
        let reparsed = parse_views(&printed).unwrap();
        assert_eq!(vs, reparsed);
    }

    /// Input the lexer has a rule for, and input it must refuse the way
    /// the reference does: punctuation, a lone `:` or `-`, `%`/`#`
    /// comments with non-ASCII text, CR, CRLF, non-ASCII letters where an
    /// identifier could be, integers at and beyond the ends of `i64`, and
    /// any printable char at all.
    fn arb_piece() -> impl Strategy<Value = String> {
        const FIXED: &[&str] = &[
            "(",
            ")",
            ",",
            ".",
            ":-",
            ":",
            "-",
            " ",
            "\t",
            "\n",
            "\r\n",
            "\r",
            "% ünïcödé, then (a) :- b",
            "# 日本",
            "%",
            "Xé",
            "ñame",
            "λ",
            "\u{a0}",
            "\u{b}",
            "@",
            "--1",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "123456789012345678901234567890",
        ];
        prop_oneof![
            4 => (0..FIXED.len()).prop_map(|k| FIXED[k].to_string()),
            4 => "[a-zA-Z_][a-zA-Z0-9_]{0,5}",
            2 => "-?[0-9]{1,4}",
            1 => "[%#]\\PC{0,10}",
            1 => "\\PC{1,3}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The byte lexer returns the char lexer's tokens, spans and
        /// errors on any string. Mutations this catches, each checked:
        /// - the span of a refused non-ASCII char ends one byte in (a
        ///   slice inside a multi-byte char): `"λ"`, `"\u{a0}"`;
        /// - `\r` taken for a line break: every line after a CRLF is off
        ///   by one;
        /// - a lone `:` or `-` reported at the char rather than past it;
        /// - identifiers that admit non-ASCII letters (`is_alphabetic`):
        ///   `"ñame"` becomes a token where the reference refuses it;
        /// - an integer beyond `i64` parsed wider and cut down instead of
        ///   refused.
        #[test]
        fn the_byte_lexer_is_the_char_lexer(pieces in prop::collection::vec(arb_piece(), 0..24)) {
            let src = pieces.concat();
            prop_assert_eq!(tokenize(&src), char_lexer::tokenize(&src), "{:?}", src);
        }
    }
}
