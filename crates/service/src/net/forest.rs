//! The forest frame: the `WAIT` reply that carries a finished forest,
//! written from and read into the forest's own arrays.
//!
//! After the `u32` length prefix the payload is status `u8` (`Ok`),
//! n `u64`, parents `n×u32`, r `u64`, roots `r×u32`, all
//! little-endian. At 2^20 vertices the parents alone are 4 MiB, so
//! neither side stages the payload in a buffer of its own:
//!
//! - the server writes a 13-byte header, the parents' bytes, the 8-byte
//!   root count and the roots' bytes in one vectored write, straight
//!   from the `Arc<SpanningForest>` the job resolved to;
//! - the client checks each claimed count against the bytes left in the
//!   frame *before* allocating, then reads the words straight into
//!   their final `Vec<u32>`s.
//!
//! The byte views that make this possible are this crate's only
//! `unsafe` code; the tests below run under Miri in CI.

use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};

use crate::net::client::{RemoteForest, WireError};
use crate::net::proto::{write_all_vectored, Status};

/// `words` as their little-endian bytes: a view of their memory on a
/// little-endian target, a per-word encoding elsewhere.
fn le_bytes(words: &[u32]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `u32` has no padding and every byte pattern is a valid
        // `u8`; `u8` needs no alignment; the slice covers exactly the
        // words' memory and shares their borrow, whose bytes on a
        // little-endian target are their little-endian encoding.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words))
        })
    }
    #[cfg(not(target_endian = "little"))]
    Cow::Owned(words.iter().flat_map(|w| w.to_le_bytes()).collect())
}

/// The memory of `words` as bytes to read into. The caller decodes the
/// words from little-endian afterwards (a no-op on little-endian
/// targets).
fn bytes_mut(words: &mut [u32]) -> &mut [u8] {
    // SAFETY: `u32` has no padding and every byte pattern is a valid
    // `u32`, so any write through the view leaves valid words; `u8`
    // needs no alignment; the view covers exactly the words' memory and
    // holds their unique borrow for its whole lifetime.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

/// Writes one `Ok` forest frame for `parents` and `roots` in a single
/// vectored write (short writes are retried), then flushes.
pub(crate) fn write_forest_frame<W: Write>(
    w: &mut W,
    parents: &[u32],
    roots: &[u32],
) -> io::Result<()> {
    let payload = 1 + 8 + std::mem::size_of_val(parents) + 8 + std::mem::size_of_val(roots);
    let len = u32::try_from(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    let mut head = [0u8; 13];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4] = Status::Ok.code();
    head[5..].copy_from_slice(&(parents.len() as u64).to_le_bytes());
    let root_count = (roots.len() as u64).to_le_bytes();
    let (parents, roots) = (le_bytes(parents), le_bytes(roots));
    write_all_vectored(
        w,
        &mut [
            IoSlice::new(&head),
            IoSlice::new(&parents),
            IoSlice::new(&root_count),
            IoSlice::new(&roots),
        ],
    )?;
    w.flush()
}

/// Reads the `len`-byte payload of one `WAIT` reply whose length prefix
/// was already read and checked against the frame ceiling.
///
/// An error status becomes [`WireError::Remote`] carrying the payload
/// as its message. An `Ok` payload whose parent or root count runs past
/// the frame is `Protocol("short WAIT reply")`, one with bytes after the
/// roots `Protocol("trailing bytes in WAIT reply")`; a count is checked
/// before its array is allocated, and the rest of the frame is skipped
/// so the stream stays frame-aligned. A stream that ends inside the
/// frame is [`WireError::Io`].
pub(crate) fn read_forest_reply<R: Read>(r: &mut R, len: usize) -> Result<RemoteForest, WireError> {
    let Some(left) = len.checked_sub(1) else {
        return Err(WireError::Protocol("empty response"));
    };
    let mut code = [0u8; 1];
    r.read_exact(&mut code)?;
    let mut body = Body { r, left };
    if code[0] != Status::Ok.code() {
        let mut msg = vec![0u8; left];
        body.r.read_exact(&mut msg)?;
        let status =
            Status::from_code(code[0]).ok_or(WireError::Protocol("unknown status code"))?;
        return Err(WireError::Remote(
            status,
            String::from_utf8_lossy(&msg).into_owned(),
        ));
    }
    const SHORT: &str = "short WAIT reply";
    let Some(n) = body.u64()? else {
        return Err(body.fail(SHORT));
    };
    // The root count must still fit after the parents.
    let Some(parents) = body.u32s(n, 8)? else {
        return Err(body.fail(SHORT));
    };
    let Some(r) = body.u64()? else {
        return Err(body.fail(SHORT));
    };
    let Some(roots) = body.u32s(r, 0)? else {
        return Err(body.fail(SHORT));
    };
    if body.left > 0 {
        return Err(body.fail("trailing bytes in WAIT reply"));
    }
    Ok(RemoteForest { parents, roots })
}

/// The unread rest of one frame's payload.
struct Body<'a, R> {
    r: &'a mut R,
    /// Payload bytes not yet read.
    left: usize,
}

impl<R: Read> Body<'_, R> {
    /// The next little-endian `u64`; `None` (nothing read) when fewer
    /// than eight bytes are left.
    fn u64(&mut self) -> io::Result<Option<u64>> {
        if self.left < 8 {
            return Ok(None);
        }
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b)?;
        self.left -= 8;
        Ok(Some(u64::from_le_bytes(b)))
    }

    /// The next `count` little-endian `u32`s, read straight into their
    /// array. `None` — checked before anything is allocated — when they
    /// would not leave `reserve` bytes in the frame.
    fn u32s(&mut self, count: u64, reserve: usize) -> io::Result<Option<Vec<u32>>> {
        let Some(bytes) = count
            .checked_mul(4)
            .and_then(|b| usize::try_from(b).ok())
            .filter(|&b| self.left.checked_sub(reserve).is_some_and(|room| b <= room))
        else {
            return Ok(None);
        };
        let mut words = vec![0u32; bytes / 4];
        self.r.read_exact(bytes_mut(&mut words))?;
        self.left -= bytes;
        #[cfg(not(target_endian = "little"))]
        for w in &mut words {
            *w = u32::from_le(*w);
        }
        Ok(Some(words))
    }

    /// Skips the rest of the frame, then reports `what` — or the socket
    /// error that cut the skip short.
    fn fail(&mut self, what: &'static str) -> WireError {
        let want = self.left as u64;
        match io::copy(&mut self.r.by_ref().take(want), &mut io::sink()) {
            Ok(got) if got == want => WireError::Protocol(what),
            Ok(_) => WireError::Io(io::ErrorKind::UnexpectedEof.into()),
            Err(e) => WireError::Io(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::proto::{read_frame_len, ReadFrame};

    /// Writes a forest frame and reads it back through the length
    /// prefix, as the client does.
    fn roundtrip(parents: &[u32], roots: &[u32]) -> RemoteForest {
        let mut wire = Vec::new();
        write_forest_frame(&mut wire, parents, roots).unwrap();
        let mut r = &wire[..];
        let ReadFrame::Frame(len) = read_frame_len(&mut r, 1 << 20).unwrap() else {
            panic!("a frame");
        };
        let forest = read_forest_reply(&mut r, len).unwrap();
        assert!(r.is_empty(), "the reader consumed exactly the frame");
        forest
    }

    /// An `Ok` payload, without the length prefix, from raw fields.
    fn payload(n: u64, parents: &[u32], r: u64, roots: &[u32], trailer: &[u8]) -> Vec<u8> {
        let mut p = vec![Status::Ok.code()];
        p.extend_from_slice(&n.to_le_bytes());
        parents
            .iter()
            .for_each(|w| p.extend_from_slice(&w.to_le_bytes()));
        p.extend_from_slice(&r.to_le_bytes());
        roots
            .iter()
            .for_each(|w| p.extend_from_slice(&w.to_le_bytes()));
        p.extend_from_slice(trailer);
        p
    }

    /// Reads `payload` as a frame followed by a marker byte; returns the
    /// result and whether the reader stopped exactly at the marker.
    fn read_then_marker(payload: &[u8]) -> (Result<RemoteForest, WireError>, bool) {
        let mut wire = payload.to_vec();
        wire.push(0x5a);
        let mut r = &wire[..];
        let got = read_forest_reply(&mut r, payload.len());
        (got, r == [0x5a])
    }

    #[test]
    fn frames_roundtrip_through_the_byte_views() {
        let parents = [u32::MAX, 0, 1, 0xdead_beef, 2];
        let forest = roundtrip(&parents, &[0, 3]);
        assert_eq!(forest.parents, parents);
        assert_eq!(forest.roots, [0, 3]);
        let empty = roundtrip(&[], &[]);
        assert!(empty.parents.is_empty() && empty.roots.is_empty());
    }

    #[test]
    fn bulk_encoding_matches_per_word_little_endian() {
        let words = [0u32, 1, 0xdead_beef, u32::MAX, 0x0102_0304];
        let per_word: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(&*le_bytes(&words), &per_word[..]);
        assert!(le_bytes(&[]).is_empty());
        let mut back = [0u32; 5];
        bytes_mut(&mut back).copy_from_slice(&per_word);
        back.iter_mut().for_each(|w| *w = u32::from_le(*w));
        assert_eq!(back, words);
    }

    #[test]
    fn frame_layout_is_the_documented_one() {
        let mut wire = Vec::new();
        write_forest_frame(&mut wire, &[u32::MAX, 0], &[0]).unwrap();
        let mut want = 29u32.to_le_bytes().to_vec();
        want.extend_from_slice(&payload(2, &[u32::MAX, 0], 1, &[0], &[]));
        assert_eq!(wire, want);
    }

    #[test]
    fn counts_past_the_frame_are_short_replies() {
        // n claims three parents; two are present.
        let (got, aligned) = read_then_marker(&payload(3, &[1, 2], 0, &[], &[]));
        assert!(matches!(got, Err(WireError::Protocol("short WAIT reply"))));
        assert!(aligned, "the rest of the frame was skipped");
        // r claims two roots; one is present.
        let (got, aligned) = read_then_marker(&payload(1, &[0], 2, &[0], &[]));
        assert!(matches!(got, Err(WireError::Protocol("short WAIT reply"))));
        assert!(aligned);
        // The frame ends before r.
        let (got, aligned) = read_then_marker(&payload(0, &[], 0, &[], &[])[..9]);
        assert!(matches!(got, Err(WireError::Protocol("short WAIT reply"))));
        assert!(aligned);
    }

    #[test]
    fn a_huge_count_fails_before_allocating() {
        // 2^40 parents would be 4 TiB: the check must run first.
        let (got, aligned) = read_then_marker(&payload(1 << 40, &[], 0, &[], &[]));
        assert!(matches!(got, Err(WireError::Protocol("short WAIT reply"))));
        assert!(aligned);
        let (got, _) = read_then_marker(&payload(u64::MAX, &[], 0, &[], &[]));
        assert!(matches!(got, Err(WireError::Protocol("short WAIT reply"))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (got, aligned) = read_then_marker(&payload(1, &[0], 1, &[0], &[7, 7]));
        assert!(matches!(
            got,
            Err(WireError::Protocol("trailing bytes in WAIT reply"))
        ));
        assert!(aligned);
    }

    #[test]
    fn error_statuses_carry_their_message() {
        let mut p = vec![Status::Panicked.code()];
        p.extend_from_slice(b"boom");
        let (got, aligned) = read_then_marker(&p);
        match got {
            Err(WireError::Remote(Status::Panicked, msg)) => assert_eq!(msg, "boom"),
            other => panic!("{other:?}"),
        }
        assert!(aligned);
        let (got, _) = read_then_marker(&[]);
        assert!(matches!(got, Err(WireError::Protocol("empty response"))));
        let (got, aligned) = read_then_marker(&[0xee, 1, 2]);
        assert!(matches!(
            got,
            Err(WireError::Protocol("unknown status code"))
        ));
        assert!(aligned);
    }

    #[test]
    fn a_stream_that_ends_mid_frame_is_an_io_error() {
        let p = payload(2, &[0, 0], 0, &[], &[]);
        let mut r = &p[..p.len() - 3];
        let got = read_forest_reply(&mut r, p.len());
        assert!(matches!(got, Err(WireError::Io(_))));
    }
}
