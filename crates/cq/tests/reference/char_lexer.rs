//! The char-at-a-time lexer the byte-level one in `src/parser.rs`
//! replaced, kept as the reference it is held to: the same tokens, the
//! same spans (byte offsets, line, column counted in chars) and the same
//! `ParseError`s, byte for byte, on any input. Compiled into the crate's
//! unit tests only (`parser.rs` includes it with `#[path]`); the parser
//! never calls it.

use super::Tok;
use crate::error::ParseError;
use crate::span::Span;

struct Lexer<'a> {
    src: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    line: usize,
    col: usize,
}

/// Tokenizes the whole input, attaching the byte span of each token.
pub(super) fn tokenize(src: &str) -> Result<Vec<(Tok<'_>, Span)>, ParseError> {
    Lexer {
        src,
        chars: src.char_indices().peekable(),
        line: 1,
        col: 1,
    }
    .tokenize()
}

impl<'a> Lexer<'a> {
    fn bump(&mut self) -> Option<(usize, char)> {
        let next = self.chars.next();
        if let Some((_, c)) = next {
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        next
    }

    fn err_at(&self, start: usize, len: usize, msg: impl Into<String>) -> ParseError {
        ParseError::spanned(Span::new(start, start + len, self.line, self.col), msg)
    }

    fn tokenize(mut self) -> Result<Vec<(Tok<'a>, Span)>, ParseError> {
        let mut out = Vec::new();
        while let Some(&(i, c)) = self.chars.peek() {
            let (line, col) = (self.line, self.col);
            let span = |end: usize| Span::new(i, end, line, col);
            match c {
                ' ' | '\t' | '\r' | '\n' => {
                    self.bump();
                }
                '%' | '#' => {
                    while let Some(&(_, c)) = self.chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                '(' => {
                    self.bump();
                    out.push((Tok::LParen, span(i + 1)));
                }
                ')' => {
                    self.bump();
                    out.push((Tok::RParen, span(i + 1)));
                }
                ',' => {
                    self.bump();
                    out.push((Tok::Comma, span(i + 1)));
                }
                '.' => {
                    self.bump();
                    out.push((Tok::Dot, span(i + 1)));
                }
                ':' => {
                    self.bump();
                    match self.chars.peek() {
                        Some(&(_, '-')) => {
                            self.bump();
                            out.push((Tok::Implies, span(i + 2)));
                        }
                        _ => return Err(self.err_at(i, 1, "expected '-' after ':'")),
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = i;
                    let mut end = i + c.len_utf8();
                    self.bump();
                    while let Some(&(j, c)) = self.chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            end = j + c.len_utf8();
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    out.push((Tok::Ident(&self.src[start..end]), span(end)));
                }
                c if c.is_ascii_digit() || c == '-' => {
                    let start = i;
                    let mut end = i + c.len_utf8();
                    self.bump();
                    let mut saw_digit = c.is_ascii_digit();
                    while let Some(&(j, c)) = self.chars.peek() {
                        if c.is_ascii_digit() {
                            saw_digit = true;
                            end = j + c.len_utf8();
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if !saw_digit {
                        return Err(self.err_at(start, end - start, "expected digits after '-'"));
                    }
                    let text = &self.src[start..end];
                    let value = text.parse::<i64>().map_err(|_| {
                        self.err_at(start, end - start, format!("integer out of range: {text}"))
                    })?;
                    out.push((Tok::Int(value), span(end)));
                }
                other => {
                    return Err(self.err_at(
                        i,
                        other.len_utf8(),
                        format!("unexpected character {other:?}"),
                    ))
                }
            }
        }
        Ok(out)
    }
}
