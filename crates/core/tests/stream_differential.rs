//! Differential guarantee of the streaming defender: for every attack
//! vector in the corpus, replaying the device's tapped telemetry through
//! the framed streaming path yields the same verdict as batch
//! `segment_tree_scores` — and the same as the independent `naive_scores`
//! implementation — at every OS thread count.
//!
//! The streaming side sees the events through the full wire pipeline
//! (encode → chunked bytes → incremental decoder → ring → scorer), so
//! this suite exercises the protocol and transport layers as well as the
//! correlation arithmetic.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;

use jgre_core::defense::stream::{
    encode_event, stream_header, ServeConfig, ServeReport, StreamDefender, StreamEvent,
};
use jgre_core::defense::{segment_tree_scores, ScoreParams};
use jgre_core::sim::{SimTime, Uid};
use jgre_core::ExperimentScale;
use jgre_core::{attack::AttackVector, corpus::spec::AospSpec, tap::tap_attack_events};
use jgre_oracles::naive_scores;

/// Streaming config that scores exactly once, at the stream's last add:
/// an effectively unbounded ring (no overload drops) and no horizon (no
/// retraction), so the single pass sees precisely the batch input.
fn lossless_config(trigger_adds: u64) -> ServeConfig {
    ServeConfig {
        horizon: None,
        trigger_adds: trigger_adds.max(1),
        ring_capacity: 1 << 20,
        service_us: 1,
        ..ServeConfig::default()
    }
}

/// Replays `events` through the wire protocol into a `StreamDefender`.
/// `threads == 1` feeds chunks inline; `threads == 2` ships them from a
/// real producer thread over a bounded channel, like `jgre serve`.
fn stream_through(events: &[StreamEvent], threads: u32, config: ServeConfig) -> ServeReport {
    const CHUNK_FRAMES: usize = 7; // deliberately odd: chunk cuts land mid-frame
    let mut defender = StreamDefender::new(config);
    if threads >= 2 {
        let owned: Vec<StreamEvent> = events.to_vec();
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(2);
        let producer = thread::spawn(move || {
            let mut chunk = stream_header();
            let mut frames = 0usize;
            for event in &owned {
                encode_event(event, &mut chunk);
                frames += 1;
                if frames >= CHUNK_FRAMES {
                    if tx.send(std::mem::take(&mut chunk)).is_err() {
                        return;
                    }
                    frames = 0;
                }
            }
            let _ = tx.send(chunk);
        });
        for chunk in rx {
            defender.ingest_bytes(&chunk);
        }
        producer.join().expect("producer thread panicked");
    } else {
        let mut chunk = stream_header();
        let mut frames = 0usize;
        for event in events {
            encode_event(event, &mut chunk);
            frames += 1;
            if frames >= CHUNK_FRAMES {
                defender.ingest_bytes(&std::mem::take(&mut chunk));
                frames = 0;
            }
        }
        defender.ingest_bytes(&chunk);
    }
    defender.finish().expect("no store, finish cannot fail")
}

type IpcByUid = BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>;

/// Batch inputs over the stream prefix ending at the pass trigger (the
/// last add): exactly what the streaming scorer has seen when it scores.
fn batch_inputs(events: &[StreamEvent]) -> (IpcByUid, Vec<SimTime>) {
    let last_add = events
        .iter()
        .rposition(|e| matches!(e, StreamEvent::JgrAdd { .. }))
        .expect("caller checked the stream has adds");
    let mut ipc_by_uid = IpcByUid::new();
    let mut adds = Vec::new();
    for event in &events[..=last_add] {
        match event {
            StreamEvent::Ipc { at, uid, ipc_type } => ipc_by_uid
                .entry(*uid)
                .or_default()
                .entry(ipc_type.clone())
                .or_default()
                .push(*at),
            StreamEvent::JgrAdd { at } => adds.push(*at),
        }
    }
    (ipc_by_uid, adds)
}

#[test]
fn streaming_matches_batch_on_every_attack_vector() {
    let spec = AospSpec::android_6_0_1();
    let vectors = AttackVector::all_vectors(&spec);
    assert_eq!(vectors.len(), 57, "the corpus ships 57 vectors");
    let params = ScoreParams::default();
    let mut verdict_vectors = 0usize;
    for vector in &vectors {
        let label = format!("{}.{}", vector.service, vector.method);
        let tap = tap_attack_events(ExperimentScale::quick(), vector, 40);
        if tap.adds == 0 {
            // A vector the undefended quick device never leaks on still
            // must not invent a verdict.
            let report = stream_through(&tap.events, 1, lossless_config(1));
            assert!(report.verdicts.is_empty(), "{label}: verdict without adds");
            continue;
        }

        let config = lossless_config(tap.adds);
        let inline = stream_through(&tap.events, 1, config);
        let threaded = stream_through(&tap.events, 2, config);
        assert_eq!(inline, threaded, "{label}: thread count changed the report");
        assert_eq!(
            inline.ingest.accepted, inline.ingest.offered,
            "{label}: lossless config must not drop"
        );

        let (ipc_by_uid, adds) = batch_inputs(&tap.events);
        let batch = segment_tree_scores(&ipc_by_uid, &adds, params);
        let naive = naive_scores(&ipc_by_uid, &adds, params);
        assert_eq!(
            batch.scores, naive.scores,
            "{label}: tree and naive batch scorers disagree"
        );

        let top = batch.top().expect("attack traffic yields scores");
        match inline.verdicts.last() {
            Some(verdict) => {
                verdict_vectors += 1;
                assert!(top.score > 0, "{label}: verdict without batch evidence");
                assert_eq!(verdict.suspect, top.uid, "{label}: suspects diverge");
                assert_eq!(verdict.score, top.score, "{label}: scores diverge");
                assert_eq!(
                    verdict.suspect, tap.attacker,
                    "{label}: the attacker must be the suspect"
                );
            }
            None => assert_eq!(
                top.score, 0,
                "{label}: batch found evidence but streaming stayed silent"
            ),
        }
    }
    assert!(
        verdict_vectors > vectors.len() / 2,
        "most vectors must produce a streaming verdict (got {verdict_vectors})"
    );
}
