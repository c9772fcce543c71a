//! Hostile bytes at the frame reader: `net::read_frame` is the first
//! code that touches what a client sends, so it is fed arbitrary bytes,
//! and valid frames cut at arbitrary read boundaries and at an arbitrary
//! last byte. Each property names the mutation of `read_frame` it
//! catches.

use proptest::prelude::*;
use std::io::{self, Read};
use viewplan_serve::net::{read_frame, write_frame};

/// The largest payload the tests accept.
const MAX_FRAME: usize = 64;

/// A reader over `bytes` that hands out at most `cuts[i % cuts.len()]`
/// bytes on its `i`-th read, so a frame arrives in arbitrary pieces, and
/// records how far into `bytes` any read asked to go.
struct Recording<'a> {
    bytes: &'a [u8],
    pos: usize,
    cuts: &'a [usize],
    reads: usize,
    asked_to: usize,
}

impl<'a> Recording<'a> {
    fn new(bytes: &'a [u8], cuts: &'a [usize]) -> Recording<'a> {
        Recording {
            bytes,
            pos: 0,
            cuts,
            reads: 0,
            asked_to: 0,
        }
    }
}

impl Read for Recording<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.asked_to = self.asked_to.max(self.pos + buf.len());
        let cut = self.cuts[self.reads % self.cuts.len()];
        self.reads += 1;
        let n = buf.len().min(cut).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// How many bytes each read hands out, cycled; never 0, which is EOF.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1..9usize, 1..6)
}

/// Bytes shaped like a header gone wrong: a run of digits (up to 30, so
/// past any length a `usize` holds), maybe a newline, then anything.
fn arb_hostile() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec((0..10u32).prop_map(|d| b'0' + d as u8), 0..30),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 0..80),
    )
        .prop_map(|(digits, newline, tail)| {
            let newline = if newline { &b"\n"[..] } else { &[] };
            [&digits[..], newline, &tail[..]].concat()
        })
}

/// Payloads of up to [`MAX_FRAME`] bytes, multibyte characters included.
fn arb_payloads() -> impl Strategy<Value = Vec<String>> {
    let chars = prop::collection::vec(
        prop_oneof![Just('a'), Just('7'), Just('\n'), Just(' '), Just('é')],
        0..30,
    );
    prop::collection::vec(chars.prop_map(String::from_iter), 0..5)
}

/// `payloads` as frames, and the offset where each frame ends.
fn frames(payloads: &[String]) -> (Vec<u8>, Vec<usize>) {
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for payload in payloads {
        write_frame(&mut stream, payload).unwrap();
        ends.push(stream.len());
    }
    (stream, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, read frame after frame until an error or the
    /// end: no call panics, a returned frame ends where the reads were
    /// asked to stop, and `Ok(None)` comes only when no byte is left.
    /// Fails if the header loop loses its 8-digit cap: a run of 20 digits
    /// overflows the length, which a debug build reports as a panic.
    #[test]
    fn hostile_bytes_never_panic(bytes in arb_hostile(), cuts in arb_cuts()) {
        let mut r = Recording::new(&bytes, &cuts);
        loop {
            let start = r.pos;
            match read_frame(&mut r, MAX_FRAME) {
                Ok(None) => {
                    prop_assert_eq!(start, bytes.len());
                    break;
                }
                Ok(Some(payload)) => {
                    prop_assert!(r.pos > start);
                    prop_assert_eq!(r.asked_to, r.pos);
                    prop_assert!(bytes[..r.pos].ends_with(payload.as_bytes()));
                }
                Err(_) => break,
            }
        }
    }

    /// Valid frames, cut at arbitrary read boundaries and truncated at
    /// an arbitrary byte: every whole frame comes back as written, and
    /// the cut frame reads as `Ok(None)` exactly when the cut falls on a
    /// frame boundary, and as `UnexpectedEof` otherwise. Fails if an EOF
    /// inside the header also answers `Ok(None)` (the `have == 0` test
    /// dropped).
    #[test]
    fn ok_none_comes_only_at_a_frame_boundary(
        payloads in arb_payloads(),
        cuts in arb_cuts(),
        cut_at in any::<usize>(),
    ) {
        let (stream, ends) = frames(&payloads);
        let len = cut_at % (stream.len() + 1);
        let mut r = Recording::new(&stream[..len], &cuts);
        let mut start = 0;
        for (payload, &end) in payloads.iter().zip(&ends) {
            if end > len {
                break;
            }
            prop_assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), Some(payload.clone()));
            start = end;
        }
        match read_frame(&mut r, MAX_FRAME) {
            Ok(None) => prop_assert_eq!(start, len),
            Err(e) => {
                prop_assert!(start < len, "{e}");
                prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
            }
            Ok(Some(payload)) => prop_assert!(false, "read {payload:?} past the cut"),
        }
    }

    /// A header with a non-digit byte among its digits (or before any),
    /// more than 8 digits, or a length over the limit is refused with
    /// `InvalidData`, however the bytes arrive. Fails if the
    /// `len > max_frame` test is dropped: an over-long frame is then read
    /// whole, or runs into the end of the stream.
    #[test]
    fn a_malformed_or_over_long_header_is_invalid_data(
        payload in prop::collection::vec(Just(b'p'), 0..MAX_FRAME * 2),
        stray in any::<u8>().prop_filter("not a digit or newline", |b| !b.is_ascii_digit() && *b != b'\n'),
        at in any::<usize>(),
        padding in 9usize..12,
        how in 0..3u32,
        cuts in arb_cuts(),
    ) {
        let header = payload.len().to_string();
        let bytes = match how {
            // A stray byte somewhere in the header, newline included.
            0 => {
                let at = at % (header.len() + 1);
                [&header.as_bytes()[..at], &[stray], &header.as_bytes()[at..], b"\n", &payload].concat()
            }
            // The length spelled with more than 8 digits.
            1 => [format!("{:0>padding$}\n", payload.len()).as_bytes(), &payload].concat(),
            // A length past the limit, spelled honestly.
            _ => {
                let payload = [&payload[..], &[b'x'; MAX_FRAME + 1]].concat();
                [format!("{}\n", payload.len()).as_bytes(), &payload].concat()
            }
        };
        let mut r = Recording::new(&bytes, &cuts);
        let err = read_frame(&mut r, MAX_FRAME).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{}", err);
    }

    /// Valid frames back to back, in arbitrary pieces: after each frame,
    /// the furthest any read was asked to go is exactly the next frame's
    /// first byte. Fails if a header read asks for `1 + max_frame`
    /// bytes, as a buffered header read would.
    #[test]
    fn no_read_asks_past_the_frame_it_returns(payloads in arb_payloads(), cuts in arb_cuts()) {
        let (stream, ends) = frames(&payloads);
        let mut r = Recording::new(&stream, &cuts);
        for (payload, &end) in payloads.iter().zip(&ends) {
            prop_assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), Some(payload.clone()));
            prop_assert_eq!(r.asked_to, end);
            prop_assert_eq!(r.pos, end);
        }
        prop_assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None);
    }
}
