//! The framed binary event protocol.
//!
//! A stream is a [`jgre_sim::record`] header with magic `JGRESTR1` and no
//! fixed fields, followed by one frame per event. Payloads are tagged:
//! `1` is a Binder-log record (`at: u64 | uid: u32 | type_len: u16 |
//! type bytes`), `2` a JGR add (`at: u64`). A zero length is refused
//! like an oversized one.
//!
//! Decoding is *incremental*: [`FrameDecoder::feed`] accepts arbitrary
//! byte slices (short reads, chunk boundaries inside a frame) and
//! [`FrameDecoder::next_event`] yields an event only once its frame is
//! complete and its checksum verifies. Corruption is a typed
//! [`FrameReject`], never a panic: a torn tail simply stays pending,
//! which is what lets crash recovery replay a journal truncated
//! mid-frame.

use std::fmt;

use jgre_sim::record::{self, Cursor, FrameError, HeaderError, Put};
use jgre_sim::{SimTime, Uid};

/// Stream header magic (version baked into the trailing digit's schema
/// constant, like `JGREWAL1`).
pub const STREAM_MAGIC: [u8; 8] = *b"JGRESTR1";

/// Schema version of the frame payloads.
pub const STREAM_SCHEMA_VERSION: u32 = 2;

/// Upper bound on a frame payload; anything larger is corruption (the
/// length field itself may be garbage, so this caps the allocation).
pub const MAX_FRAME_LEN: u32 = 4_096;

/// One event of the telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A Binder-log record: `uid` invoked `ipc_type` at `at`.
    Ipc {
        /// Virtual arrival time.
        at: SimTime,
        /// The calling app.
        uid: Uid,
        /// Interface.method label, the scorer's IPC-type key.
        ipc_type: String,
    },
    /// A JGR add observed on the victim at `at`.
    JgrAdd {
        /// Virtual arrival time.
        at: SimTime,
    },
}

impl StreamEvent {
    /// The event's virtual time.
    pub fn at(&self) -> SimTime {
        match self {
            StreamEvent::Ipc { at, .. } | StreamEvent::JgrAdd { at } => *at,
        }
    }

    /// The event as a view borrowing its label.
    pub(crate) fn view(&self) -> EventView<'_> {
        match self {
            StreamEvent::Ipc { at, uid, ipc_type } => EventView::Ipc {
                at: *at,
                uid: *uid,
                ipc_type,
            },
            StreamEvent::JgrAdd { at } => EventView::JgrAdd { at: *at },
        }
    }
}

/// A [`StreamEvent`] whose label borrows from the bytes it was decoded
/// from (or from the event it views), so decoding allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventView<'a> {
    /// A Binder-log record.
    Ipc {
        at: SimTime,
        uid: Uid,
        ipc_type: &'a str,
    },
    /// A JGR add.
    JgrAdd { at: SimTime },
}

impl EventView<'_> {
    /// The event's virtual time.
    pub(crate) fn at(self) -> SimTime {
        match self {
            EventView::Ipc { at, .. } | EventView::JgrAdd { at } => at,
        }
    }

    /// The owned event.
    pub(crate) fn to_event(self) -> StreamEvent {
        match self {
            EventView::Ipc { at, uid, ipc_type } => StreamEvent::Ipc {
                at,
                uid,
                ipc_type: ipc_type.to_owned(),
            },
            EventView::JgrAdd { at } => StreamEvent::JgrAdd { at },
        }
    }
}

/// One decoded frame: its event, borrowed, and the frame's bytes exactly
/// as received (`len | payload | checksum`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'a> {
    pub(crate) event: EventView<'a>,
    pub(crate) bytes: &'a [u8],
}

/// Why a stream (or one frame of it) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameReject {
    /// The header's magic is not `JGRESTR1` — not our stream at all.
    BadMagic,
    /// The header's schema version is not the one this build speaks.
    StaleVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A frame length exceeding [`MAX_FRAME_LEN`] — a corrupt length
    /// field, refused before allocating.
    OversizedFrame {
        /// The length the corrupt field claimed.
        len: u32,
    },
    /// The payload's checksum does not match the trailer.
    ChecksumMismatch {
        /// Checksum computed over the received payload.
        computed: u64,
        /// Checksum the frame trailer carried.
        stored: u64,
    },
    /// An unknown payload tag (checksum valid, content nonsense).
    BadTag {
        /// The tag byte found.
        found: u8,
    },
    /// A payload whose layout does not match its tag.
    BadPayload,
}

impl fmt::Display for FrameReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReject::BadMagic => write!(f, "stream header magic mismatch"),
            FrameReject::StaleVersion { found } => write!(
                f,
                "stream schema version {found} (this build speaks {STREAM_SCHEMA_VERSION})"
            ),
            FrameReject::OversizedFrame { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameReject::ChecksumMismatch { computed, stored } => write!(
                f,
                "frame checksum mismatch (computed {computed:#018x}, stored {stored:#018x})"
            ),
            FrameReject::BadTag { found } => write!(f, "unknown frame tag {found}"),
            FrameReject::BadPayload => write!(f, "frame payload does not match its tag"),
        }
    }
}

impl std::error::Error for FrameReject {}

const TAG_IPC: u8 = 1;
const TAG_ADD: u8 = 2;
/// Payload bytes of an IPC record before its label: tag, time, uid and
/// label length.
const IPC_FIXED_LEN: usize = 1 + 8 + 4 + 2;

/// The 12-byte stream header.
pub fn stream_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(record::HEADER_LEN);
    record::write_header(&mut out, &STREAM_MAGIC, STREAM_SCHEMA_VERSION);
    out
}

/// Appends one framed event to `out`, writing the payload in place.
pub fn encode_event(event: &StreamEvent, out: &mut Vec<u8>) {
    record::write_frame_with(out, |payload| match event {
        StreamEvent::Ipc { at, uid, ipc_type } => {
            payload.push(TAG_IPC);
            payload.put_u64(at.as_micros());
            payload.put_u32(uid.raw());
            let bytes = ipc_type.as_bytes();
            assert!(
                bytes.len() <= u16::MAX as usize,
                "ipc type label too long to frame"
            );
            payload.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            payload.extend_from_slice(bytes);
        }
        StreamEvent::JgrAdd { at } => {
            payload.push(TAG_ADD);
            payload.put_u64(at.as_micros());
        }
    });
}

/// Frames `event` into `out` (cleared first) unless the decoder would
/// refuse its frame: a label that pushes the payload past
/// [`MAX_FRAME_LEN`] is the same [`FrameReject::OversizedFrame`] here
/// as on the wire, so nothing is ever journaled that recovery refuses.
pub(crate) fn encode_checked(event: &StreamEvent, out: &mut Vec<u8>) -> Result<(), FrameReject> {
    if let StreamEvent::Ipc { ipc_type, .. } = event {
        let len = IPC_FIXED_LEN + ipc_type.len();
        if len > MAX_FRAME_LEN as usize {
            return Err(FrameReject::OversizedFrame {
                len: u32::try_from(len).unwrap_or(u32::MAX),
            });
        }
    }
    out.clear();
    encode_event(event, out);
    Ok(())
}

/// Encodes a whole stream: header plus one frame per event.
pub fn encode_stream<'a>(events: impl IntoIterator<Item = &'a StreamEvent>) -> Vec<u8> {
    let mut out = stream_header();
    for event in events {
        encode_event(event, &mut out);
    }
    out
}

/// Incremental decoder tolerating arbitrary chunking and short reads.
///
/// # Example
///
/// ```
/// use jgre_defense::stream::{encode_stream, FrameDecoder, StreamEvent};
/// use jgre_sim::SimTime;
///
/// let events = vec![StreamEvent::JgrAdd { at: SimTime::from_micros(7) }];
/// let bytes = encode_stream(&events);
/// let mut decoder = FrameDecoder::new();
/// // Feed one byte at a time — frames assemble across feeds.
/// let mut seen = Vec::new();
/// for &b in &bytes {
///     decoder.feed(&[b]);
///     while let Some(e) = decoder.next_event().unwrap() {
///         seen.push(e);
///     }
/// }
/// assert_eq!(seen, events);
/// assert_eq!(decoder.pending_bytes(), 0);
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    header_seen: bool,
}

impl FrameDecoder {
    /// Creates a decoder expecting a stream header first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer
        // bounded by (pending + chunk) rather than the whole stream.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > MAX_FRAME_LEN as usize * 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet decoded — a torn tail if the stream
    /// has ended.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, `Ok(None)` when more bytes are
    /// needed, a typed [`FrameReject`] on corruption (the decoder stays
    /// at the rejected frame; a rejected stream is fail-stop).
    pub fn next_event(&mut self) -> Result<Option<StreamEvent>, FrameReject> {
        Ok(self.next_frame()?.map(|frame| frame.event.to_event()))
    }

    /// [`next_event`](Self::next_event) without the copy: the event
    /// borrows its label from the decoder's buffer, and the frame's
    /// bytes come along as received. The decoder is canonical (one tag
    /// per layout, every payload byte consumed, a UTF-8 label, a length
    /// the checksum covers), so those bytes are exactly what
    /// [`encode_event`] writes for the event.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Frame<'_>>, FrameReject> {
        if !self.header_seen {
            let rest = &self.buf[self.pos..];
            match record::read_header(rest, &STREAM_MAGIC, STREAM_SCHEMA_VERSION, 0) {
                Ok(_) => {}
                Err(HeaderError::Short) => return Ok(None),
                Err(HeaderError::BadMagic) => return Err(FrameReject::BadMagic),
                Err(HeaderError::StaleVersion { found }) => {
                    return Err(FrameReject::StaleVersion { found })
                }
            }
            self.pos += record::HEADER_LEN;
            self.header_seen = true;
        }
        let rest = &self.buf[self.pos..];
        let mut cur = Cursor::new(rest);
        let payload = match cur.frame(1..=MAX_FRAME_LEN) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(None),
            Err(FrameError::BadLength { len }) => return Err(FrameReject::OversizedFrame { len }),
            Err(FrameError::Checksum { computed, stored }) => {
                return Err(FrameReject::ChecksumMismatch { computed, stored })
            }
        };
        let event = decode_payload(payload)?;
        self.pos += cur.pos();
        Ok(Some(Frame {
            event,
            bytes: &rest[..cur.pos()],
        }))
    }
}

fn decode_payload(payload: &[u8]) -> Result<EventView<'_>, FrameReject> {
    let mut cur = Cursor::new(payload);
    let (Some(tag), Some(at)) = (cur.u8(), cur.u64()) else {
        return Err(FrameReject::BadPayload);
    };
    let at = SimTime::from_micros(at);
    let event = match tag {
        TAG_ADD => EventView::JgrAdd { at },
        TAG_IPC => {
            let (Some(uid), Some(len)) = (cur.u32(), cur.u16()) else {
                return Err(FrameReject::BadPayload);
            };
            let ipc_type = cur
                .take(usize::from(len))
                .and_then(|b| std::str::from_utf8(b).ok())
                .ok_or(FrameReject::BadPayload)?;
            EventView::Ipc {
                at,
                uid: Uid::new(uid),
                ipc_type,
            }
        }
        found => return Err(FrameReject::BadTag { found }),
    };
    if cur.done() {
        Ok(event)
    } else {
        Err(FrameReject::BadPayload)
    }
}

/// Decodes a complete byte buffer, returning the events plus the number
/// of trailing bytes that did not form a whole frame (the torn tail a
/// crash mid-append leaves behind).
pub fn decode_stream(bytes: &[u8]) -> Result<(Vec<StreamEvent>, usize), FrameReject> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    let mut events = Vec::new();
    while let Some(event) = decoder.next_event()? {
        events.push(event);
    }
    Ok((events, decoder.pending_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<StreamEvent> {
        vec![
            StreamEvent::Ipc {
                at: SimTime::from_micros(100),
                uid: Uid::new(10_061),
                ipc_type: "IClipboard.addPrimaryClipChangedListener".into(),
            },
            StreamEvent::JgrAdd {
                at: SimTime::from_micros(600),
            },
            StreamEvent::Ipc {
                at: SimTime::from_micros(700),
                uid: Uid::new(10_065),
                ipc_type: "IAudioService.getState".into(),
            },
        ]
    }

    #[test]
    fn round_trip() {
        let events = sample_events();
        let bytes = encode_stream(&events);
        let (decoded, torn) = decode_stream(&bytes).unwrap();
        assert_eq!(decoded, events);
        assert_eq!(torn, 0);
    }

    /// [`decode_stream`] through the borrowing step. Each frame's bytes
    /// must be what [`encode_event`] writes for its event.
    fn decode_borrowed(bytes: &[u8]) -> Result<(Vec<StreamEvent>, usize), FrameReject> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        let mut events = Vec::new();
        while let Some(frame) = decoder.next_frame()? {
            let event = frame.event.to_event();
            let mut encoded = Vec::new();
            encode_event(&event, &mut encoded);
            assert_eq!(frame.bytes, &encoded[..], "frame bytes are not canonical");
            assert_eq!(event.view(), frame.event);
            events.push(event);
        }
        Ok((events, decoder.pending_bytes()))
    }

    #[test]
    fn bit_flip_anywhere_is_rejected_or_torn_never_panics() {
        let events = sample_events();
        let clean = encode_stream(&events);
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x40;
            // The borrowed and owned decoders agree on every outcome.
            assert_eq!(
                decode_borrowed(&corrupt),
                decode_stream(&corrupt),
                "byte {i}"
            );
            // A flip in a length field can shift framing; whatever
            // happens must be a typed outcome, not a panic, and must not
            // silently yield *different* events than some prefix of the
            // originals.
            if let Ok((decoded, _)) = decode_stream(&corrupt) {
                assert!(
                    decoded.iter().zip(&events).all(|(d, e)| d == e),
                    "byte {i}: decoded events diverged silently"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_torn_not_error() {
        let events = sample_events();
        let clean = encode_stream(&events);
        for cut in record::HEADER_LEN..clean.len() {
            let (decoded, torn) =
                decode_stream(&clean[..cut]).expect("truncation is not corruption");
            assert_eq!(decode_borrowed(&clean[..cut]), Ok((decoded.clone(), torn)));
            assert_eq!(
                torn,
                cut - record::HEADER_LEN - consumed_len(&events, &decoded)
            );
            assert!(decoded.len() <= events.len());
            assert_eq!(decoded[..], events[..decoded.len()]);
        }
    }

    fn consumed_len(all: &[StreamEvent], decoded: &[StreamEvent]) -> usize {
        let mut buf = Vec::new();
        for event in &all[..decoded.len()] {
            encode_event(event, &mut buf);
        }
        buf.len()
    }

    #[test]
    fn encode_checked_refuses_what_the_decoder_refuses() {
        let fits = "x".repeat(MAX_FRAME_LEN as usize - IPC_FIXED_LEN);
        let ipc = |ipc_type: &str| StreamEvent::Ipc {
            at: SimTime::from_micros(1),
            uid: Uid::new(10_061),
            ipc_type: ipc_type.to_owned(),
        };
        let mut out = vec![0xaa];
        encode_checked(&ipc(&fits), &mut out).unwrap();
        let mut stream = stream_header();
        stream.extend_from_slice(&out);
        assert_eq!(decode_stream(&stream), Ok((vec![ipc(&fits)], 0)));

        let over = format!("{fits}x");
        assert_eq!(
            encode_checked(&ipc(&over), &mut out),
            Err(FrameReject::OversizedFrame {
                len: MAX_FRAME_LEN + 1
            })
        );
        // The decoder refuses the same frame for the same reason.
        let mut stream = stream_header();
        encode_event(&ipc(&over), &mut stream);
        assert_eq!(
            decode_stream(&stream),
            Err(FrameReject::OversizedFrame {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn stale_version_is_typed() {
        let mut bytes = encode_stream(&sample_events());
        bytes[STREAM_MAGIC.len()] = 9; // version 9 in LE
        assert_eq!(
            decode_stream(&bytes).unwrap_err(),
            FrameReject::StaleVersion { found: 9 }
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_stream(&sample_events());
        bytes[0] = b'X';
        assert_eq!(decode_stream(&bytes).unwrap_err(), FrameReject::BadMagic);
    }

    #[test]
    fn short_header_is_pending() {
        let bytes = stream_header();
        let (events, torn) = decode_stream(&bytes[..record::HEADER_LEN - 3]).unwrap();
        assert!(events.is_empty());
        assert_eq!(torn, record::HEADER_LEN - 3);
    }

    #[test]
    fn oversized_length_field_is_refused() {
        let mut bytes = stream_header();
        bytes.put_u32(MAX_FRAME_LEN + 1);
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(
            decode_stream(&bytes).unwrap_err(),
            FrameReject::OversizedFrame {
                len: MAX_FRAME_LEN + 1
            }
        );
    }

    #[test]
    fn zero_length_is_refused_like_an_oversized_one() {
        // Refused on the length alone, before the trailer has arrived.
        let mut bytes = stream_header();
        bytes.put_u32(0);
        assert_eq!(
            decode_stream(&bytes).unwrap_err(),
            FrameReject::OversizedFrame { len: 0 }
        );
    }

    #[test]
    fn unknown_tag_with_valid_checksum_is_typed() {
        let mut bytes = stream_header();
        let mut payload = vec![7]; // no such tag
        payload.put_u64(42);
        record::write_frame(&mut bytes, &payload);
        assert_eq!(
            decode_stream(&bytes).unwrap_err(),
            FrameReject::BadTag { found: 7 }
        );
    }

    #[test]
    fn garbage_never_panics() {
        let mut state = 0xdead_beefu64;
        for round in 0..200 {
            let mut bytes = Vec::with_capacity(round * 3);
            for _ in 0..round * 3 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bytes.push((state >> 56) as u8);
            }
            let _ = decode_stream(&bytes);
        }
    }
}
