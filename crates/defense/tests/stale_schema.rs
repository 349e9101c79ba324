//! Version-1 bytes, as the FNV-1a-trailed formats wrote them before the
//! shared record codec, must be refused by version: a journal resets,
//! a checkpoint and a stream header are typed rejections. The fixtures
//! are verbatim outputs of the version-1 writers.

use std::rc::Rc;

use jgre_defense::stream::{decode_stream, FrameReject};
use jgre_defense::{decode_checkpoint, CheckpointReject, Journal, MemoryStore};

/// A journal of one JGR add and one decision.
const V1_JOURNAL: &str = "4a47524557414c310100000000000000000000004a0000007b224576656e74223a\
7b22706964223a34322c226b696e64223a22416464222c226174223a31302c226c6f676765645f6174223a31302c22\
7461626c655f73697a65223a343030317d7dfb70780b53d0e7573d0000007b224465636973696f6e223a7b22766963\
74696d223a34322c22636f6d706c657465645f6174223a32302c226b696c6c6564223a5b31303036315d7d7da16782\
77d47db9f7";

/// A checkpoint at journal sequence 2 with one cooldown stamp.
const V1_CHECKPOINT: &str = "4a475245434b503101000000780000007b226a6f75726e616c5f736571223a322c\
2274616b656e5f6174223a32302c22636f6e6669675f66696e6765727072696e74223a313530303033343331353335\
31333337333034382c226d6f6e69746f72223a7b2277617463686573223a5b5d7d2c226c6173745f70617373223a5b\
5b34322c32305d5d7d0c8d963114603467";

/// A stream of one JGR add at 7 µs.
const V1_STREAM: &str = "4a4752455354523101000000090000000207000000000000008237f82cdad7e8af";

fn bytes(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn a_v1_journal_reopens_as_a_reset() {
    let store = MemoryStore::new();
    let v1 = bytes(V1_JOURNAL);
    store.set_journal_bytes(v1.clone());
    let (journal, report) = Journal::reopen(Rc::new(store.clone())).unwrap();
    assert_eq!(report.reset_reason, Some("unknown schema version"));
    assert!(report.records.is_empty());
    assert_eq!(report.truncated_bytes, v1.len() as u64);
    assert_eq!(journal.next_seq(), 0);
    // The reset rewrote a current-version header.
    let (_, report) = Journal::reopen(Rc::new(store)).unwrap();
    assert_eq!(report.reset_reason, None);
}

#[test]
fn a_v1_checkpoint_is_a_bad_version() {
    assert_eq!(
        decode_checkpoint(&bytes(V1_CHECKPOINT)),
        Err(CheckpointReject::BadVersion(1))
    );
}

#[test]
fn a_v1_stream_header_is_stale() {
    assert_eq!(
        decode_stream(&bytes(V1_STREAM)),
        Err(FrameReject::StaleVersion { found: 1 })
    );
}
