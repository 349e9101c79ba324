//! The framed-record codec shared by every byte format the workspace
//! persists or ships: the crash-safety journal and checkpoints, the
//! `serve` wire stream and the lint summary cache.
//!
//! # Record format
//!
//! All integers are little-endian.
//!
//! ```text
//! header:  magic [u8; 8] | version u32 | format-specific fixed fields
//! frame:   len u32 | payload [u8; len] | checksum u64
//! ```
//!
//! The trailer is [`checksum`] of the payload. Each format picks its
//! magic, version, fixed fields and accepted frame lengths. Readers never
//! panic on untrusted input: a bad header or frame is a typed
//! [`HeaderError`] or [`FrameError`] (a bad length is refused before the
//! rest of the frame is needed, so it never drives an allocation), and a
//! frame whose bytes have not all arrived is *incomplete* (`Ok(None)`),
//! never an error: the torn tail a crash mid-append leaves behind.
//!
//! The per-field helpers are `#[inline]`: other crates call them once
//! per field on the lint cache's hot paths.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::RangeInclusive;

/// Bytes of the common header prefix: magic plus version.
pub const HEADER_LEN: usize = 8 + 4;

/// Bytes a frame adds around its payload: length plus checksum.
pub const FRAME_OVERHEAD: usize = 4 + 8;

/// Deterministic 64-bit hasher, identical across processes and
/// platforms (unlike `std::hash`): each absorbed little-endian word is
/// xored into the state and stirred with one multiply + rotate (an
/// invertible map, so distinct prefixes never merge), and
/// [`finish`](Self::finish) runs the splitmix64 finalizer. One multiply
/// per *eight* bytes keeps checksums and fingerprints cheap where a
/// byte-serial walk (FNV et al.) would dominate. Variable-length fields
/// carry their length, so field sequences cannot collide by
/// concatenation.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        // Seed at the FNV-1a offset basis (any fixed odd constant works).
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl StableHasher {
    /// Fresh hasher at the fixed seed.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn absorb(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }

    /// Fold raw bytes, eight at a time, closed by the byte length (so a
    /// trailing zero byte and a missing one hash differently).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.absorb(u64::from_le_bytes(*word));
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.absorb(u64::from_le_bytes(tail));
        }
        self.absorb(bytes.len() as u64);
    }

    /// Fold one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.absorb(u64::from(v));
    }

    /// Fold a `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.absorb(u64::from(v));
    }

    /// Fold a `u64`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.absorb(v);
    }

    /// Fold a string, length-prefixed.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated hash, diffused through the splitmix64 finalizer
    /// (per-absorb stirring is deliberately light, so the raw state's
    /// low bits would be biased toward the last absorbed words).
    #[inline]
    pub fn finish(&self) -> u64 {
        crate::rng::splitmix64(self.0)
    }
}

/// The frame checksum: [`StableHasher`] over the payload bytes.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Why a header was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Fewer bytes than the header's fixed part.
    Short,
    /// The magic is not this format's.
    BadMagic,
    /// The version is not the one this build speaks.
    StaleVersion {
        /// The version the header carried.
        found: u32,
    },
}

/// Why a frame was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length field is outside the format's accepted range.
    BadLength {
        /// The length the field claimed.
        len: u32,
    },
    /// The payload does not match its checksum trailer.
    Checksum {
        /// Checksum computed over the received payload.
        computed: u64,
        /// Checksum the trailer carried.
        stored: u64,
    },
}

/// Little-endian appends onto a byte buffer.
pub trait Put {
    /// Appends a `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a string prefixed by its `u32` byte length.
    fn put_str(&mut self, s: &str);
}

impl Put for Vec<u8> {
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }
}

/// Appends the common header: `magic | version`. The format appends its
/// own fixed fields after it.
pub fn write_header(out: &mut Vec<u8>, magic: &[u8; 8], version: u32) {
    out.extend_from_slice(magic);
    out.put_u32(version);
}

/// Checks a header and returns a cursor just past `magic | version`.
///
/// # Errors
///
/// The first of: [`HeaderError::Short`] when `bytes` is shorter than the
/// header plus the format's `fixed` bytes of own fields, a bad magic, a
/// stale version.
pub fn read_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    fixed: usize,
) -> Result<Cursor<'a>, HeaderError> {
    if bytes.len() < HEADER_LEN + fixed {
        return Err(HeaderError::Short);
    }
    let mut cur = Cursor::new(bytes);
    if cur.take(magic.len()) != Some(&magic[..]) {
        return Err(HeaderError::BadMagic);
    }
    match cur.u32() {
        Some(found) if found == version => Ok(cur),
        found => Err(HeaderError::StaleVersion {
            found: found.unwrap_or_default(),
        }),
    }
}

/// Appends one frame: `len | payload | checksum`. Panics past
/// `u32::MAX` payload bytes, a writer bug.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame whose payload `write` appends to `out` in place:
/// the length field is reserved, `write` appends the payload after it,
/// then the length is patched and the checksum of the written bytes
/// appended. The bytes equal [`write_frame`] of the same payload, with
/// no payload buffer of its own. `write` must only append. Panics past
/// `u32::MAX` payload bytes, a writer bug.
#[inline]
pub fn write_frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.put_u32(0);
    write(out);
    let payload = &out[start + 4..];
    let (len, sum) = (frame_len(payload), checksum(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out.put_u64(sum);
}

/// [`write_frame`] to any writer, streaming `payload` instead of
/// copying it into a buffer first.
///
/// # Errors
///
/// Whatever `out` returns.
pub fn write_frame_to(out: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    out.write_all(&frame_len(payload).to_le_bytes())?;
    out.write_all(payload)?;
    out.write_all(&checksum(payload).to_le_bytes())
}

/// A frame's length field. Panics past `u32::MAX` payload bytes, a
/// writer bug.
fn frame_len(payload: &[u8]) -> u32 {
    u32::try_from(payload.len()).unwrap_or_else(|_| panic!("frame payload too long"))
}

/// A bounds-checked little-endian reader over untrusted bytes. Every
/// read returns `None` when the bytes run out.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let bytes = self.buf.get(self.pos..)?.first_chunk::<N>()?;
        self.pos += N;
        Some(*bytes)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string; `None` also when the
    /// bytes are not UTF-8.
    #[inline]
    pub fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()?;
        std::str::from_utf8(self.take(len as usize)?).ok()
    }

    /// Reads one frame as `(payload, stored checksum)` without verifying
    /// it — for readers that check only the frames they use. `Ok(None)`
    /// when the frame is incomplete; on `Ok(None)` or an error nothing
    /// is consumed.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadLength`] when the length is outside `lens`.
    #[inline]
    pub fn raw_frame(
        &mut self,
        lens: RangeInclusive<u32>,
    ) -> Result<Option<(&'a [u8], u64)>, FrameError> {
        let start = self.pos;
        let Some(len) = self.u32() else {
            return Ok(None);
        };
        if !lens.contains(&len) {
            self.pos = start;
            return Err(FrameError::BadLength { len });
        }
        match (self.take(len as usize), self.u64()) {
            (Some(payload), Some(stored)) => Ok(Some((payload, stored))),
            _ => {
                self.pos = start;
                Ok(None)
            }
        }
    }

    /// Reads one frame and verifies its checksum. `Ok(None)` when the
    /// frame is incomplete; on `Ok(None)` or an error nothing is
    /// consumed.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadLength`] when the length is outside `lens`,
    /// [`FrameError::Checksum`] when the payload does not verify.
    #[inline]
    pub fn frame(&mut self, lens: RangeInclusive<u32>) -> Result<Option<&'a [u8]>, FrameError> {
        let start = self.pos;
        let Some((payload, stored)) = self.raw_frame(lens)? else {
            return Ok(None);
        };
        let computed = checksum(payload);
        if computed != stored {
            self.pos = start;
            return Err(FrameError::Checksum { computed, stored });
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn streamed_frames_match_buffered_ones() {
        for payload in [&b""[..], b"x", b"twelve bytes", &[7u8; 1000][..]] {
            let mut buffered = Vec::new();
            write_frame(&mut buffered, payload);
            let mut streamed = Vec::new();
            write_frame_to(&mut streamed, payload).unwrap();
            assert_eq!(streamed, buffered);
        }
    }

    #[test]
    fn header_checks_short_before_magic_before_version() {
        let mut bytes = Vec::new();
        write_header(&mut bytes, b"JGRETST1", 2);
        bytes.put_u64(99);
        let mut cur = read_header(&bytes, b"JGRETST1", 2, 8).unwrap();
        assert_eq!(cur.u64(), Some(99));
        assert!(cur.done());
        assert_eq!(
            read_header(&bytes, b"JGRETST1", 2, 9).unwrap_err(),
            HeaderError::Short
        );
        assert_eq!(
            read_header(&bytes[..10], b"XXXXXXXX", 2, 0).unwrap_err(),
            HeaderError::Short
        );
        assert_eq!(
            read_header(&bytes, b"XXXXXXXX", 2, 8).unwrap_err(),
            HeaderError::BadMagic
        );
        assert_eq!(
            read_header(&bytes, b"JGRETST1", 1, 8).unwrap_err(),
            HeaderError::StaleVersion { found: 2 }
        );
    }

    #[test]
    fn frame_outcomes_consume_only_on_success() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"payload");
        assert_eq!(bytes.len(), 7 + FRAME_OVERHEAD);
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.frame(1..=7), Ok(Some(&b"payload"[..])));
        assert!(cur.done());

        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.frame(1..=6), Err(FrameError::BadLength { len: 7 }));
        assert_eq!(cur.pos(), 0);

        let mut cur = Cursor::new(&bytes[..bytes.len() - 1]);
        assert_eq!(cur.frame(0..=u32::MAX), Ok(None));
        assert_eq!(cur.pos(), 0);

        let mut flipped = bytes.clone();
        flipped[5] ^= 1;
        let mut cur = Cursor::new(&flipped);
        assert!(matches!(
            cur.frame(0..=u32::MAX),
            Err(FrameError::Checksum { .. })
        ));
        assert_eq!(cur.pos(), 0);
        // The unverified read still frames it.
        let (payload, stored) = Cursor::new(&flipped)
            .raw_frame(0..=u32::MAX)
            .unwrap()
            .unwrap();
        assert_ne!(checksum(payload), stored);
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&[1, 2, 0]);
        bytes.put_str("ok");
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.u8(), Some(1));
        assert_eq!(cur.u16(), Some(2));
        assert_eq!(cur.u64(), None, "short read consumes nothing");
        assert_eq!(cur.str(), Some("ok"));
        assert!(cur.done());
        assert_eq!(cur.u8(), None);
        assert_eq!(Cursor::new(&bytes[3..bytes.len() - 1]).str(), None);
    }
}
