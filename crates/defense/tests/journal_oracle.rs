//! The serve journal holds the accepted frames verbatim.
//!
//! `StreamDefender::ingest_bytes` appends each accepted frame to its
//! journal as received rather than re-encoding the decoded event. That
//! is sound only because the decoder is canonical, so the oracle here
//! is the re-encoding path itself: after every chunk, the journal must
//! equal the stream header plus `encode_event` of each event accepted
//! since the last verdict compaction. The typed entry,
//! `ingest(StreamEvent)`, must end in the same report and journal as the
//! wire entry over the same events.

use jgre_defense::stream::{
    encode_event, recover_events, stream_header, BoundedRing, ServeConfig, ServeReport,
    StreamDefender, StreamEvent,
};
use jgre_defense::MemoryStore;
use jgre_sim::record::HEADER_LEN;
use jgre_sim::{SimDuration, SimTime, Uid};
use proptest::prelude::*;

/// Labels of every shape the wire carries: empty, short, long and
/// multi-byte UTF-8.
const LABELS: [&str; 4] = [
    "",
    "IClipboard.addPrimaryClipChangedListener",
    "IAudioService.getState",
    "IΣ.naïve",
];

/// Random events: time gaps small enough that calls pair with adds
/// inside Algorithm 1's window, so verdicts (and with them journal
/// compactions) are common.
fn events_strategy() -> impl Strategy<Value = Vec<StreamEvent>> {
    let step = (0u64..600, 0u32..5, 0usize..LABELS.len());
    proptest::collection::vec(step, 0..160).prop_map(|steps| {
        let mut at = 0u64;
        steps
            .into_iter()
            .map(|(gap, kind, label)| {
                at += gap;
                let at = SimTime::from_micros(at);
                match kind {
                    0 | 1 => StreamEvent::JgrAdd { at },
                    app => StreamEvent::Ipc {
                        at,
                        uid: Uid::new(10_000 + app),
                        ipc_type: LABELS[label].to_owned(),
                    },
                }
            })
            .collect()
    })
}

/// Small triggers and rings with a service cost near the arrival gap:
/// scoring passes, verdicts and backpressure drops all happen.
fn config_strategy() -> impl Strategy<Value = ServeConfig> {
    (1u64..5, 1usize..9, 1u64..400, 0u64..3).prop_map(
        |(trigger_adds, ring_capacity, service_us, horizon)| ServeConfig {
            trigger_adds,
            ring_capacity,
            service_us,
            horizon: (horizon > 0).then(|| SimDuration::from_millis(horizon * 5)),
            ..ServeConfig::default()
        },
    )
}

/// The stream cut at byte offsets cycling through `sizes`.
fn chunks<'a>(bytes: &'a [u8], sizes: &[usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut rest = bytes;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        out.push(chunk);
        rest = tail;
    }
    out
}

/// The journal after each chunk, rebuilt by re-encoding: the ring's
/// verdict on each whole frame fed so far, and a compaction at each
/// verdict's triggering add (the add that brought the accepted total to
/// its `adds_seen`).
fn expected_journals(
    config: &ServeConfig,
    events: &[StreamEvent],
    chunks: &[&[u8]],
    report: &ServeReport,
) -> Vec<Vec<u8>> {
    let mut ends = Vec::with_capacity(events.len());
    let mut end = HEADER_LEN;
    for event in events {
        let mut frame = Vec::new();
        encode_event(event, &mut frame);
        end += frame.len();
        ends.push(end);
    }
    let mut ring = BoundedRing::new(config.ring_capacity, config.service_us);
    let mut verdicts = report.verdicts.iter().map(|v| v.adds_seen).peekable();
    let (mut next, mut fed, mut adds, mut dropped) = (0, 0, 0u64, 0u64);
    let mut log = Vec::new();
    let mut journals = Vec::new();
    for chunk in chunks {
        fed += chunk.len();
        while next < events.len() && ends[next] <= fed {
            let event = &events[next];
            next += 1;
            if ring.offer(event.at().as_micros()).is_none() {
                dropped += 1;
                continue;
            }
            encode_event(event, &mut log);
            if let StreamEvent::JgrAdd { .. } = event {
                adds += 1;
                if verdicts.next_if_eq(&adds).is_some() {
                    log.clear();
                }
            }
        }
        let mut journal = stream_header();
        journal.extend_from_slice(&log);
        journals.push(journal);
    }
    assert_eq!(verdicts.next(), None, "every verdict compacted");
    assert_eq!(dropped, report.ingest.dropped_backpressure);
    journals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_journal_is_the_accepted_frames_verbatim(
        events in events_strategy(),
        config in config_strategy(),
        sizes in proptest::collection::vec(1usize..80, 1..6),
    ) {
        let mut wire = stream_header();
        for event in &events {
            encode_event(event, &mut wire);
        }
        let chunks = chunks(&wire, &sizes);
        let store = MemoryStore::new();
        let mut defender = StreamDefender::with_store(config, &store);
        let mut journals = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            defender.ingest_bytes(chunk);
            journals.push(store.journal_bytes());
        }
        let report = defender.finish().unwrap();
        prop_assert_eq!(report.ingest.rejected(), 0);
        prop_assert_eq!(&journals, &expected_journals(&config, &events, &chunks, &report));

        // The typed entry frames each event once and takes the same path.
        let typed_store = MemoryStore::new();
        let mut typed = StreamDefender::with_store(config, &typed_store);
        for event in &events {
            typed.ingest(event.clone());
        }
        prop_assert_eq!(typed.finish().unwrap(), report);
        prop_assert_eq!(typed_store.journal_bytes(), store.journal_bytes());
        prop_assert_eq!(recover_events(&store).unwrap().reject, None);
    }
}
