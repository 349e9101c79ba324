//! The record codec is the one parser every persisted or shipped byte
//! format goes through, so its trust-boundary oracles are pinned here
//! once: arbitrary bytes never panic, a written stream reads back
//! exactly, and any truncation or single bit flip decodes to a prefix of
//! what was written. The checksum is pinned to known answers so no
//! format's bytes can drift silently.

use jgre_sim::record::{self, checksum, Cursor, FrameError, HeaderError, Put};
use proptest::prelude::*;

const MAGIC: &[u8; 8] = b"JGRETEST";
const VERSION: u32 = 7;
const MAX_LEN: u32 = 64;

fn write(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    record::write_header(&mut out, MAGIC, VERSION);
    out.put_u32(frames.len() as u32);
    for frame in frames {
        record::write_frame(&mut out, frame);
    }
    out
}

/// Every frame up to the first incomplete or rejected one, plus the
/// rejection if one stopped the read.
fn read_until(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, Option<FrameError>), HeaderError> {
    let mut cur = record::read_header(bytes, MAGIC, VERSION, 4)?;
    let _declared = cur.u32();
    let mut frames = Vec::new();
    loop {
        match cur.frame(0..=MAX_LEN) {
            Ok(Some(payload)) => frames.push(payload.to_vec()),
            Ok(None) => return Ok((frames, None)),
            Err(e) => return Ok((frames, Some(e))),
        }
    }
}

fn read(bytes: &[u8]) -> Result<Vec<Vec<u8>>, HeaderError> {
    read_until(bytes).map(|(frames, _)| frames)
}

fn is_prefix(decoded: &[Vec<u8>], written: &[Vec<u8>]) -> bool {
    decoded.len() <= written.len() && decoded == &written[..decoded.len()]
}

fn frames_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..8)
}

#[test]
fn checksum_known_answers() {
    // Summary-cache files on disk carry trailers computed with these
    // values; they stay loadable only while the values hold.
    let hundred: Vec<u8> = (0..100).collect();
    let cases: [(&[u8], u64); 6] = [
        (b"", 0x63da_1ac3_92cb_ff61),
        (b"a", 0xea34_fb1b_2227_f1ec),
        (b"abcdefg", 0x6853_a055_60ab_413d),
        (b"abcdefgh", 0xd0fc_62a3_4db3_52e3),
        (b"abcdefghi", 0x403a_a351_a835_ddca),
        (&hundred, 0xafcb_7dd0_2199_e9dc),
    ];
    for (input, expected) in cases {
        assert_eq!(
            checksum(input),
            expected,
            "checksum of {} bytes drifted",
            input.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = read(&bytes);
        let mut cur = Cursor::new(&bytes);
        while !cur.done() {
            let before = cur.pos();
            let _ = cur.raw_frame(1..=MAX_LEN);
            let _ = cur.frame(1..=MAX_LEN);
            let _ = (cur.str(), cur.u64(), cur.u32(), cur.u16());
            if cur.pos() == before && cur.u8().is_none() {
                break;
            }
        }
    }

    #[test]
    fn in_place_writer_equals_write_frame(
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
        pieces in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..5),
    ) {
        // The payload arrives in pieces, as a field-by-field encoder
        // writes it, after whatever `out` already holds.
        let payload = pieces.concat();
        let mut expected = prefix.clone();
        expected.put_u32(payload.len() as u32);
        expected.extend_from_slice(&payload);
        expected.put_u64(checksum(&payload));
        let mut buffered = prefix.clone();
        record::write_frame(&mut buffered, &payload);
        prop_assert_eq!(&buffered, &expected);
        let mut in_place = prefix;
        record::write_frame_with(&mut in_place, |out| {
            for piece in &pieces {
                out.extend_from_slice(piece);
            }
        });
        prop_assert_eq!(in_place, expected);
    }

    #[test]
    fn read_inverts_write(frames in frames_strategy()) {
        prop_assert_eq!(read(&write(&frames)), Ok(frames));
    }

    #[test]
    fn truncation_decodes_a_prefix(frames in frames_strategy(), cut in any::<usize>()) {
        let bytes = write(&frames);
        let cut = cut % (bytes.len() + 1);
        // A torn tail is incomplete, never an error.
        match read_until(&bytes[..cut]) {
            Ok((decoded, stopped)) => {
                prop_assert!(is_prefix(&decoded, &frames));
                prop_assert_eq!(stopped, None);
            }
            Err(e) => prop_assert_eq!(e, HeaderError::Short),
        }
    }

    #[test]
    fn a_bit_flip_decodes_a_prefix(frames in frames_strategy(), at in any::<usize>(), bit in 0u8..8) {
        let mut bytes = write(&frames);
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok(decoded) = read(&bytes) {
            prop_assert!(is_prefix(&decoded, &frames), "flip at byte {} diverged", at);
        }
    }
}
