//! Bytes from earlier schema versions must be refused by version.
//! Version-1 bytes, as the FNV-1a-trailed formats wrote them before the
//! shared record codec: a journal resets, a checkpoint and a stream
//! header are typed rejections. A version-2 checkpoint, which still
//! carried the monitor's remove timestamps, is a typed rejection too, and
//! recovery over it falls back to replaying the journal. So are the last
//! JSON-payload versions, a schema-2 journal and a schema-3 checkpoint.
//! The fixtures are verbatim outputs of the old writers.

use std::rc::Rc;

use jgre_art::JgrEventKind;
use jgre_defense::stream::{decode_stream, FrameReject};
use jgre_defense::{
    decode_checkpoint, CheckpointReject, DefenderConfig, DurableConfig, JgreDefender, Journal,
    JournalRecord, MemoryStore,
};
use jgre_framework::System;
use jgre_sim::{Pid, SimTime};

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

/// A version-2 checkpoint at journal sequence 2, under the default
/// configuration: pid 42 holds 4321 entries, recording since 10 µs, with
/// one add (10 µs) and two removes (15, 18 µs) logged.
const V2_CHECKPOINT: &str = "4a475245434b503102000000dd0000007b226a6f75726e616c5f736571223a32\
2c2274616b656e5f6174223a32302c22636f6e6669675f66696e6765727072696e74223a3632333033363236373830\
36313433323236312c226d6f6e69746f72223a7b2277617463686573223a5b7b22706964223a34322c226375727265\
6e74223a343332312c227265636f7264696e675f73696e6365223a31302c226164645f74696d6573223a5b31305d2c\
2272656d6f76655f74696d6573223a5b31352c31385d2c22616c61726d6564223a66616c73657d5d7d2c226c617374\
5f70617373223a5b5b34322c32305d5d7d5a12cd4215fdc98e";

/// A version-2 (JSON payload) journal of the same add and decision as
/// [`V1_JOURNAL`].
const V2_JOURNAL: &str = "4a47524557414c310200000000000000000000004a0000007b224576656e7422\
3a7b22706964223a34322c226b696e64223a22416464222c226174223a31302c226c6f676765645f6174223a31302c\
227461626c655f73697a65223a343030317d7da4c31515f70d5fb53d0000007b224465636973696f6e223a7b227669\
6374696d223a34322c22636f6d706c657465645f6174223a32302c226b696c6c6564223a5b31303036315d7d7d6a63\
871a4c76195a";

/// A version-3 (JSON payload) checkpoint: [`V2_CHECKPOINT`]'s state
/// without the remove timestamps.
const V3_CHECKPOINT: &str = "4a475245434b503103000000c60000007b226a6f75726e616c5f736571223a32\
2c2274616b656e5f6174223a32302c22636f6e6669675f66696e6765727072696e74223a3632333033363236373830\
36313433323236312c226d6f6e69746f72223a7b2277617463686573223a5b7b22706964223a34322c226375727265\
6e74223a343332312c227265636f7264696e675f73696e6365223a31302c226164645f74696d6573223a5b31305d2c\
22616c61726d6564223a66616c73657d5d7d2c226c6173745f70617373223a5b5b34322c32305d5d7da55b51f27768\
ef82";

/// A stream of one JGR add at 7 µs.
const V1_STREAM: &str = "4a4752455354523101000000090000000207000000000000008237f82cdad7e8af";

fn bytes(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn assert_reopens_as_a_reset(stale: &str) {
    let store = MemoryStore::new();
    let stale = bytes(stale);
    store.set_journal_bytes(stale.clone());
    let (journal, report) = Journal::reopen(Rc::new(store.clone())).unwrap();
    assert_eq!(report.reset_reason, Some("unknown schema version"));
    assert!(report.records.is_empty());
    assert_eq!(report.truncated_bytes, stale.len() as u64);
    assert_eq!(journal.next_seq(), 0);
    // The reset rewrote a current-version header.
    let (_, report) = Journal::reopen(Rc::new(store)).unwrap();
    assert_eq!(report.reset_reason, None);
}

#[test]
fn a_v1_journal_reopens_as_a_reset() {
    assert_reopens_as_a_reset(V1_JOURNAL);
}

#[test]
fn a_v2_journal_reopens_as_a_reset() {
    assert_reopens_as_a_reset(V2_JOURNAL);
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

#[test]
fn a_v2_checkpoint_is_a_bad_version() {
    assert_eq!(
        decode_checkpoint(&bytes(V2_CHECKPOINT)),
        Err(CheckpointReject::BadVersion(2))
    );
}

#[test]
fn a_v3_checkpoint_is_a_bad_version() {
    assert_eq!(
        decode_checkpoint(&bytes(V3_CHECKPOINT)),
        Err(CheckpointReject::BadVersion(3))
    );
}

#[test]
fn resume_over_a_v2_checkpoint_replays_the_journal() {
    assert_resume_replays_the_journal_only(V2_CHECKPOINT);
}

#[test]
fn resume_over_a_v3_checkpoint_replays_the_journal() {
    assert_resume_replays_the_journal_only(V3_CHECKPOINT);
}

fn assert_resume_replays_the_journal_only(stale_checkpoint: &str) {
    let store = MemoryStore::new();
    let pid = Pid::new(42);
    let mut journal = Journal::create(Rc::new(store.clone())).unwrap();
    for (at, table_size) in [(30, 4_001), (31, 4_002)] {
        journal.append(&JournalRecord::Event {
            pid,
            kind: JgrEventKind::Add,
            at: SimTime::from_micros(at),
            logged_at: Some(SimTime::from_micros(at)),
            table_size,
        });
    }
    store.set_checkpoint_bytes(Some(bytes(stale_checkpoint)));
    let mut system = System::boot(0);
    let defender = JgreDefender::resume(
        &mut system,
        DefenderConfig::default(),
        DurableConfig::default(),
        Rc::new(store),
    )
    .unwrap();
    let stats = defender.stats();
    assert_eq!(stats.checkpoints_rejected, 1);
    assert_eq!(stats.replayed_records, 2);
    // The monitor holds the journal's state, none of the checkpoint's.
    let monitor = defender.monitor();
    assert_eq!(monitor.current_count(pid), 4_002);
    assert_eq!(
        monitor.add_times(pid),
        [SimTime::from_micros(30), SimTime::from_micros(31)]
    );
}
