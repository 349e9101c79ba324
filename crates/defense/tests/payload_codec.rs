//! The journal and checkpoint payload codec over untrusted bytes.
//!
//! A payload that passes its frame checksum is still untrusted: a
//! crafted or corrupted journal or checkpoint file must end in a typed
//! outcome (`BadPayload`, or the end of the journal's clean prefix),
//! never a panic or a stack overflow. What the codec accepts it must
//! also have been able to write: decoding is canonical, so re-encoding
//! an accepted payload gives back the same bytes.

use std::rc::Rc;

use jgre_art::JgrEventKind;
use jgre_defense::{
    decode_checkpoint, encode_checkpoint, CheckpointReject, DefenderCheckpoint, Journal,
    JournalRecord, MemoryStore, MonitorSnapshot, WatchSnapshot, CHECKPOINT_MAGIC,
    CHECKPOINT_SCHEMA_VERSION,
};
use jgre_sim::record::{self, FRAME_OVERHEAD, HEADER_LEN};
use jgre_sim::{Pid, SimTime, Uid};
use proptest::prelude::*;

/// Nesting deep enough to overflow any recursive-descent parser's stack.
const DEPTH: usize = 100_000;

/// Bytes before a journal's first frame: the record header plus the
/// base sequence.
const JOURNAL_HEADER_LEN: usize = HEADER_LEN + 8;

fn checkpoint_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    record::write_header(&mut out, &CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION);
    record::write_frame(&mut out, payload);
    out
}

/// The one payload of an encoded checkpoint.
fn checkpoint_payload(cp: &DefenderCheckpoint) -> Vec<u8> {
    let bytes = encode_checkpoint(cp);
    bytes[HEADER_LEN + 4..bytes.len() - 8].to_vec()
}

/// A fresh journal holding `records`, as bytes.
fn journal_of(records: &[JournalRecord]) -> Vec<u8> {
    let store = MemoryStore::new();
    let mut journal = Journal::create(Rc::new(store.clone())).unwrap();
    for r in records {
        journal.append(r);
    }
    store.journal_bytes()
}

/// The payload of `record`'s journal frame.
fn record_payload(record: &JournalRecord) -> Vec<u8> {
    let bytes = journal_of(std::slice::from_ref(record));
    bytes[JOURNAL_HEADER_LEN + 4..bytes.len() - 8].to_vec()
}

fn sample_event() -> JournalRecord {
    JournalRecord::Event {
        pid: Pid::new(42),
        kind: JgrEventKind::Add,
        at: SimTime::from_micros(10),
        logged_at: Some(SimTime::from_micros(10)),
        table_size: 4_001,
    }
}

#[test]
fn a_deeply_nested_checkpoint_payload_is_bad_payload() {
    let bytes = checkpoint_bytes(&vec![b'['; DEPTH]);
    assert_eq!(decode_checkpoint(&bytes), Err(CheckpointReject::BadPayload));
}

#[test]
fn journal_reopen_keeps_the_prefix_before_a_deeply_nested_frame() {
    let store = MemoryStore::new();
    let clean = journal_of(&[sample_event()]);
    let mut bytes = clean.clone();
    record::write_frame(&mut bytes, &vec![b'['; DEPTH]);
    store.set_journal_bytes(bytes);
    let (journal, report) = Journal::reopen(Rc::new(store.clone())).unwrap();
    assert_eq!(report.reset_reason, None);
    assert_eq!(report.records, [(0, sample_event())]);
    assert_eq!(report.truncated_bytes, (DEPTH + FRAME_OVERHEAD) as u64);
    assert_eq!(
        store.journal_bytes(),
        clean,
        "the store keeps the clean prefix"
    );
    assert_eq!(journal.next_seq(), 1);
}

fn time() -> impl Strategy<Value = SimTime> {
    any::<u64>().prop_map(SimTime::from_micros)
}

fn opt_time() -> impl Strategy<Value = Option<SimTime>> {
    prop_oneof![Just(None), time().prop_map(Some)]
}

/// Empty lists often, and long ones.
fn list<S>(element: S) -> impl Strategy<Value = Vec<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone,
{
    prop_oneof![
        1 => Just(Vec::new()),
        3 => proptest::collection::vec(element, 1..300),
    ]
}

fn journal_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (
            any::<u32>(),
            any::<bool>(),
            time(),
            opt_time(),
            any::<usize>()
        )
            .prop_map(
                |(pid, add, at, logged_at, table_size)| JournalRecord::Event {
                    pid: Pid::new(pid),
                    kind: if add {
                        JgrEventKind::Add
                    } else {
                        JgrEventKind::Remove
                    },
                    at,
                    logged_at,
                    table_size,
                }
            ),
        (any::<u32>(), time(), list(any::<u32>().prop_map(Uid::new))).prop_map(
            |(victim, completed_at, killed)| JournalRecord::Decision {
                victim: Pid::new(victim),
                completed_at,
                killed,
            }
        ),
    ]
}

fn watch() -> impl Strategy<Value = WatchSnapshot> {
    (
        any::<u32>(),
        any::<usize>(),
        opt_time(),
        list(time()),
        any::<bool>(),
    )
        .prop_map(
            |(pid, current, recording_since, add_times, alarmed)| WatchSnapshot {
                pid: Pid::new(pid),
                current,
                recording_since,
                add_times,
                alarmed,
            },
        )
}

fn checkpoint() -> impl Strategy<Value = DefenderCheckpoint> {
    (
        any::<u64>(),
        time(),
        any::<u64>(),
        prop_oneof![
            1 => Just(Vec::new()),
            3 => proptest::collection::vec(watch(), 1..24),
        ],
        list((any::<u32>().prop_map(Pid::new), time())),
    )
        .prop_map(
            |(journal_seq, taken_at, config_fingerprint, watches, last_pass)| DefenderCheckpoint {
                journal_seq,
                taken_at,
                config_fingerprint,
                monitor: MonitorSnapshot { watches },
                last_pass,
            },
        )
}

/// One edit of a valid payload: overwrite a byte, cut the tail, insert a
/// byte, or replace the whole payload with noise.
fn mutation() -> impl Strategy<Value = (u8, usize, u8, Vec<u8>)> {
    (
        0u8..4,
        any::<usize>(),
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
}

fn mutate(mut payload: Vec<u8>, (op, at, byte, noise): (u8, usize, u8, Vec<u8>)) -> Vec<u8> {
    match op {
        0 if !payload.is_empty() => {
            let i = at % payload.len();
            payload[i] = byte;
        }
        1 => payload.truncate(at % (payload.len() + 1)),
        2 => payload.insert(at % (payload.len() + 1), byte),
        _ => payload = noise,
    }
    payload
}

/// A checkpoint carrying `payload` decodes to a checkpoint that
/// re-encodes to the same bytes, or is `BadPayload`.
fn check_checkpoint_payload(payload: &[u8]) -> Result<(), TestCaseError> {
    let bytes = checkpoint_bytes(payload);
    match decode_checkpoint(&bytes) {
        Ok(decoded) => prop_assert_eq!(encode_checkpoint(&decoded), bytes),
        Err(reject) => prop_assert_eq!(reject, CheckpointReject::BadPayload),
    }
    Ok(())
}

/// A journal of `prefix`, a frame carrying `payload`, then `tail`: the
/// payload frame either ends the clean prefix there, or decodes to a
/// record that re-encodes to the same bytes and the scan goes on.
fn check_journal_payload(
    prefix: &[JournalRecord],
    payload: &[u8],
    tail: &JournalRecord,
) -> Result<(), TestCaseError> {
    let clean = journal_of(prefix);
    let mut bytes = clean.clone();
    record::write_frame(&mut bytes, payload);
    bytes.extend_from_slice(&journal_of(std::slice::from_ref(tail))[JOURNAL_HEADER_LEN..]);
    let store = MemoryStore::new();
    store.set_journal_bytes(bytes.clone());
    let (_, report) = Journal::reopen(Rc::new(store.clone())).unwrap();
    prop_assert_eq!(report.reset_reason, None);
    let decoded: Vec<JournalRecord> = report.records.into_iter().map(|(_, r)| r).collect();
    prop_assert_eq!(&decoded[..prefix.len()], prefix);
    if decoded.len() == prefix.len() {
        prop_assert_eq!(report.truncated_bytes, (bytes.len() - clean.len()) as u64);
        prop_assert_eq!(store.journal_bytes(), clean);
    } else {
        prop_assert_eq!(decoded.len(), prefix.len() + 2);
        prop_assert_eq!(record_payload(&decoded[prefix.len()]), payload);
        prop_assert_eq!(&decoded[prefix.len() + 1], tail);
        prop_assert_eq!(report.truncated_bytes, 0);
    }
    Ok(())
}

/// Every value of every byte: tags, flags and counts included, which a
/// random edit of a long payload rarely reaches.
#[test]
fn every_single_byte_edit_is_rejected_or_canonical() {
    let records = [
        sample_event(),
        JournalRecord::Event {
            pid: Pid::new(7),
            kind: JgrEventKind::Remove,
            at: SimTime::from_micros(3),
            logged_at: None,
            table_size: 2,
        },
        JournalRecord::Decision {
            victim: Pid::new(42),
            completed_at: SimTime::from_micros(20),
            killed: vec![Uid::new(10_061), Uid::new(10_062)],
        },
    ];
    let watch = |recording_since, alarmed| WatchSnapshot {
        pid: Pid::new(42),
        current: 4_321,
        recording_since,
        add_times: vec![SimTime::from_micros(10)],
        alarmed,
    };
    let cp = DefenderCheckpoint {
        journal_seq: 2,
        taken_at: SimTime::from_micros(20),
        config_fingerprint: 9,
        monitor: MonitorSnapshot {
            watches: vec![
                watch(Some(SimTime::from_micros(10)), false),
                watch(None, true),
            ],
        },
        last_pass: vec![(Pid::new(42), SimTime::from_micros(20))],
    };
    let edits = |payload: Vec<u8>| {
        (0..payload.len()).flat_map(move |i| {
            let payload = payload.clone();
            (0..=u8::MAX).map(move |b| {
                let mut edited = payload.clone();
                edited[i] = b;
                edited
            })
        })
    };
    for record in &records {
        for payload in edits(record_payload(record)) {
            check_journal_payload(&[], &payload, &records[0]).unwrap();
        }
    }
    for payload in edits(checkpoint_payload(&cp)) {
        check_checkpoint_payload(&payload).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn journal_records_round_trip(records in proptest::collection::vec(journal_record(), 0..12)) {
        let store = MemoryStore::new();
        store.set_journal_bytes(journal_of(&records));
        let (_, report) = Journal::reopen(Rc::new(store)).unwrap();
        prop_assert_eq!(report.truncated_bytes, 0);
        let decoded: Vec<JournalRecord> = report.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn checkpoints_round_trip(cp in checkpoint()) {
        prop_assert_eq!(decode_checkpoint(&encode_checkpoint(&cp)), Ok(cp));
    }

    #[test]
    fn any_checkpoint_payload_is_decoded_canonically_or_rejected(
        cp in checkpoint(),
        edit in mutation(),
    ) {
        check_checkpoint_payload(&mutate(checkpoint_payload(&cp), edit))?;
    }

    #[test]
    fn any_journal_payload_ends_the_clean_prefix_or_decodes_canonically(
        prefix in proptest::collection::vec(journal_record(), 0..4),
        victim in journal_record(),
        edit in mutation(),
        tail in journal_record(),
    ) {
        check_journal_payload(&prefix, &mutate(record_payload(&victim), edit), &tail)?;
    }
}
