//! The long-running streaming defender service behind `jgre serve`.
//!
//! Events flow producer → framed protocol → [`BoundedRing`] →
//! [`IncrementalScorer`]. All detection decisions happen in *virtual
//! time*: the ring's queueing model turns sustained overload into
//! deterministic drops and latencies, so a run's [`ServeReport`] is a
//! pure function of its [`ServeConfig`] — byte-identical across
//! invocations and across OS thread counts (with `threads ≥ 2` a real
//! producer thread ships encoded frames over a bounded channel, but the
//! channel is lossless; loss is modeled only by the ring).
//!
//! Durability mirrors the on-device defender's journal: accepted frames
//! append to a [`StateStore`] journal verbatim, in the stream's own wire
//! format (the decoder is canonical, so a received frame is byte for
//! byte what re-encoding its event would write); the log compacts at
//! each verdict (a verdict is a window reset — older events can never
//! influence a future score), and recovery replays the journal
//! through the torn-tail-tolerant decoder.

use std::io;
use std::sync::mpsc;
use std::thread;

use jgre_sim::source::{EventSource, SourceConfig, SourceEventKind};
use jgre_sim::{Histogram, SimDuration, SimTime, Uid};
use serde::Serialize;

use super::frame::{
    encode_checked, encode_event, stream_header, EventView, FrameDecoder, FrameReject, StreamEvent,
};
use super::ring::{BoundedRing, IngestStats};
use crate::{DetectionStats, IncrementalScorer, PersistError, ScoreParams, StateStore};

/// Tuning of one `jgre serve` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// The synthetic telemetry stream.
    pub source: SourceConfig,
    /// Algorithm 1 parameters.
    pub params: ScoreParams,
    /// Sliding-window horizon: votes from adds older than this are
    /// retracted, so a long quiet run forgets stale traffic. `None`
    /// accumulates forever (batch semantics).
    pub horizon: Option<SimDuration>,
    /// JGR adds between scoring passes — the streaming stand-in for the
    /// monitor's trigger threshold.
    pub trigger_adds: u64,
    /// Ring slots between producer and scorer.
    pub ring_capacity: usize,
    /// Modeled scoring cost per event, µs (sets the overload point:
    /// the ring keeps up below `1e6 / service_us` events/sec).
    pub service_us: u64,
    /// OS threads: `1` runs producer and scorer inline; `≥ 2` ships
    /// frames through a real bounded channel from a producer thread.
    /// Never affects the report.
    pub threads: u32,
    /// Frames per encoded chunk handed to the decoder (short-read
    /// boundaries land inside frames on purpose).
    pub chunk_frames: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            source: SourceConfig::default(),
            params: ScoreParams::default(),
            horizon: Some(SimDuration::from_millis(50)),
            trigger_adds: 32,
            ring_capacity: 4_096,
            service_us: 8,
            threads: 1,
            chunk_frames: 256,
        }
    }
}

/// One streaming detection verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StreamVerdict {
    /// Virtual time of the triggering add.
    pub at_us: u64,
    /// The top-scoring app.
    pub suspect: Uid,
    /// Its `jgre_score` at the verdict.
    pub score: u64,
    /// Total adds accepted when the verdict fired.
    pub adds_seen: u64,
    /// Arrival→scored lag of the triggering add, µs.
    pub latency_us: u64,
}

/// Detection-latency quantiles over every accepted add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    /// Adds measured.
    pub samples: u64,
    /// Median lag, µs (log₂-bin upper bound).
    pub p50_us: Option<u64>,
    /// 99th-percentile lag, µs (log₂-bin upper bound).
    pub p99_us: Option<u64>,
    /// Worst lag, µs.
    pub max_us: Option<u64>,
}

impl LatencySummary {
    fn from_histogram(histogram: &Histogram) -> Self {
        Self {
            samples: histogram.count(),
            p50_us: histogram.p50(),
            p99_us: histogram.p99(),
            max_us: histogram.max(),
        }
    }
}

/// Everything one serve run produced. A pure function of the
/// [`ServeConfig`] (excluding `threads` and `chunk_frames`, which only
/// choose the transport).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// The stream that was synthesized.
    pub source: SourceConfig,
    /// Scoring parameters used.
    pub params: ScoreParams,
    /// Sliding-window horizon, µs (`null` = unbounded).
    pub horizon_us: Option<u64>,
    /// Adds per scoring pass.
    pub trigger_adds: u64,
    /// Ring slots.
    pub ring_capacity: usize,
    /// Modeled per-event scoring cost, µs.
    pub service_us: u64,
    /// Binder-log records accepted.
    pub calls: u64,
    /// JGR adds accepted.
    pub adds: u64,
    /// Verdicts, in order.
    pub verdicts: Vec<StreamVerdict>,
    /// Ingestion accounting (offers, drops, rejections by reason).
    pub ingest: IngestStats,
    /// Fleet-mergeable detection counters (includes the ingest totals).
    pub stats: DetectionStats,
    /// Detection-latency quantiles.
    pub latency: LatencySummary,
}

impl ServeReport {
    /// Stable JSON rendering (field order fixed by the struct).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serializable report")
    }

    /// Deterministic text summary; the `drops:` footer is the line the
    /// CI smoke job greps.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "jgre serve: seed={} rate={}/s duration={:.3}s horizon={}\n",
            self.source.seed,
            self.source.events_per_sec,
            self.source.duration.as_micros() as f64 / 1e6,
            match self.horizon_us {
                Some(us) => format!("{us}µs"),
                None => "unbounded".to_owned(),
            },
        ));
        out.push_str(&format!(
            "events: offered={} accepted={} calls={} adds={}\n",
            self.ingest.offered, self.ingest.accepted, self.calls, self.adds
        ));
        match self.verdicts.last() {
            Some(last) => out.push_str(&format!(
                "verdicts: {} (last at {}µs: uid {} score {})\n",
                self.verdicts.len(),
                last.at_us,
                last.suspect.raw(),
                last.score
            )),
            None => out.push_str("verdicts: 0\n"),
        }
        out.push_str(&format!(
            "latency: p50={} p99={} max={} samples={}\n",
            fmt_us(self.latency.p50_us),
            fmt_us(self.latency.p99_us),
            fmt_us(self.latency.max_us),
            self.latency.samples
        ));
        out.push_str(&format!(
            "drops: backpressure={} rejected: checksum={} version={} malformed={}\n",
            self.ingest.dropped_backpressure,
            self.ingest.rejected_checksum,
            self.ingest.rejected_version,
            self.ingest.rejected_malformed
        ));
        out
    }
}

fn fmt_us(value: Option<u64>) -> String {
    match value {
        Some(us) => format!("{us}µs"),
        None => "-".to_owned(),
    }
}

/// The streaming defender: feed it events (framed bytes or decoded
/// [`StreamEvent`]s) and collect the [`ServeReport`].
///
/// # Example
///
/// ```
/// use jgre_defense::stream::{ServeConfig, StreamDefender, StreamEvent};
/// use jgre_sim::{SimTime, Uid};
///
/// let mut defender = StreamDefender::new(ServeConfig {
///     trigger_adds: 4,
///     ..ServeConfig::default()
/// });
/// for k in 0..4u64 {
///     defender.ingest(StreamEvent::Ipc {
///         at: SimTime::from_micros(1_000 + k * 2_000),
///         uid: Uid::new(10_061),
///         ipc_type: "IClipboard.listen".into(),
///     });
///     defender.ingest(StreamEvent::JgrAdd { at: SimTime::from_micros(1_500 + k * 2_000) });
/// }
/// let report = defender.finish().unwrap();
/// assert_eq!(report.verdicts.len(), 1);
/// assert_eq!(report.verdicts[0].suspect, Uid::new(10_061));
/// ```
#[derive(Debug)]
pub struct StreamDefender<'s> {
    config: ServeConfig,
    scorer: IncrementalScorer,
    ring: BoundedRing,
    decoder: FrameDecoder,
    ingest: IngestStats,
    latency: Histogram,
    verdicts: Vec<StreamVerdict>,
    adds_since_pass: u64,
    calls: u64,
    adds: u64,
    stats: DetectionStats,
    /// Scorer counter values already attributed to a pass.
    pairs_attributed: u64,
    records_attributed: u64,
    store: Option<&'s dyn StateStore>,
    /// Accepted frames not yet written to the store, verbatim.
    pending_log: Vec<u8>,
    /// Reused encoding buffer of [`ingest`](Self::ingest).
    frame_buf: Vec<u8>,
    compact_requested: bool,
    io_error: Option<io::Error>,
    poisoned: bool,
}

impl<'s> StreamDefender<'s> {
    /// Creates a defender with no durable event log.
    pub fn new(config: ServeConfig) -> Self {
        let scorer = match config.horizon {
            Some(h) => IncrementalScorer::with_horizon(config.params, h),
            None => IncrementalScorer::new(config.params),
        };
        Self {
            scorer,
            ring: BoundedRing::new(config.ring_capacity, config.service_us),
            decoder: FrameDecoder::new(),
            ingest: IngestStats::new(),
            latency: Histogram::new(),
            verdicts: Vec::new(),
            adds_since_pass: 0,
            calls: 0,
            adds: 0,
            stats: DetectionStats::new(),
            pairs_attributed: 0,
            records_attributed: 0,
            store: None,
            pending_log: Vec::new(),
            frame_buf: Vec::new(),
            compact_requested: false,
            io_error: None,
            poisoned: false,
            config,
        }
    }

    /// Creates a defender journaling accepted events into `store` (the
    /// stream wire format is the on-disk format; recovery goes through
    /// [`recover_events`]).
    pub fn with_store(config: ServeConfig, store: &'s dyn StateStore) -> Self {
        let mut defender = Self::new(config);
        defender.store = Some(store);
        defender.compact_requested = true; // first flush writes the header
        defender
    }

    /// Ingestion accounting so far.
    pub fn ingest_stats(&self) -> &IngestStats {
        &self.ingest
    }

    /// Whether a protocol rejection has fail-stopped this stream.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Feeds raw wire bytes (any chunking). After a typed rejection the
    /// stream is fail-stopped: the rejection is counted and every later
    /// byte ignored — corruption never panics and never desynchronizes
    /// scoring.
    ///
    /// Each event is scored with its label borrowed from the decoder's
    /// buffer, and an accepted frame goes to the journal as received.
    pub fn ingest_bytes(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        // Moved out for the loop, so each event can borrow the decoder's
        // buffer while the accept path updates the rest of the defender.
        let mut decoder = std::mem::take(&mut self.decoder);
        decoder.feed(bytes);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => self.accept(frame.event, frame.bytes),
                Ok(None) => break,
                Err(reject) => {
                    self.reject(&reject);
                    self.poisoned = true;
                    break;
                }
            }
        }
        self.decoder = decoder;
        self.flush_log();
    }

    /// Feeds one already-decoded event: it is framed once, then takes
    /// the same path as a frame off the wire. An event the decoder would
    /// refuse (a label past [`MAX_FRAME_LEN`](super::MAX_FRAME_LEN)) is
    /// counted as malformed and dropped; its boundary is known, so the
    /// stream is not fail-stopped.
    pub fn ingest(&mut self, event: StreamEvent) {
        let mut frame = std::mem::take(&mut self.frame_buf);
        match encode_checked(&event, &mut frame) {
            Ok(()) => self.accept(event.view(), &frame),
            Err(reject) => self.reject(&reject),
        }
        self.frame_buf = frame;
    }

    fn reject(&mut self, reject: &FrameReject) {
        self.ingest.offered += 1;
        self.ingest.record_reject(reject);
    }

    /// The accept path: ring offer, journal, scorer. `frame` is the
    /// event's encoding, appended to the journal verbatim.
    fn accept(&mut self, event: EventView<'_>, frame: &[u8]) {
        self.ingest.offered += 1;
        let at = event.at();
        let Some(completion_us) = self.ring.offer(at.as_micros()) else {
            self.ingest.dropped_backpressure += 1;
            return;
        };
        self.ingest.accepted += 1;
        if self.store.is_some() {
            self.pending_log.extend_from_slice(frame);
        }
        match event {
            EventView::Ipc { at, uid, ipc_type } => {
                self.calls += 1;
                self.scorer.push_ipc(uid, ipc_type, at);
            }
            EventView::JgrAdd { at } => {
                self.adds += 1;
                self.scorer.push_add(at);
                let lag_us = completion_us.saturating_sub(at.as_micros());
                self.latency.record(lag_us);
                self.adds_since_pass += 1;
                if self.adds_since_pass >= self.config.trigger_adds {
                    self.scoring_pass(at, lag_us);
                }
            }
        }
    }

    /// One scoring pass: snapshot the incremental report, emit a verdict
    /// when an app stands out, and reset the window on a verdict (the
    /// defender's post-kill reset — also the log's compaction point).
    fn scoring_pass(&mut self, at: SimTime, lag_us: u64) {
        self.adds_since_pass = 0;
        let report = self.scorer.report();
        self.stats.outcomes += 1;
        self.stats.full += 1;
        self.stats.segment_tree_scored += 1;
        self.stats.rounds += 1;
        self.stats.pairs_processed += report.pairs_processed - self.pairs_attributed;
        self.stats.records_scanned += report.records_scanned - self.records_attributed;
        self.pairs_attributed = report.pairs_processed;
        self.records_attributed = report.records_scanned;
        self.stats.response_delay_us = self.stats.response_delay_us.saturating_add(lag_us);
        let Some(top) = report.top().filter(|t| t.score > 0) else {
            return;
        };
        self.verdicts.push(StreamVerdict {
            at_us: at.as_micros(),
            suspect: top.uid,
            score: top.score,
            adds_seen: self.adds,
            latency_us: lag_us,
        });
        self.scorer.reset();
        self.pairs_attributed = 0;
        self.records_attributed = 0;
        // A verdict resets the window, so nothing before it can matter
        // to recovery: compact the event log down to its header.
        if self.store.is_some() {
            self.pending_log.clear();
            self.compact_requested = true;
        }
    }

    fn flush_log(&mut self) {
        let Some(store) = self.store else {
            return;
        };
        if self.io_error.is_some() {
            return;
        }
        let result = if self.compact_requested {
            store.replace_journal(&stream_header()).and_then(|()| {
                if self.pending_log.is_empty() {
                    Ok(())
                } else {
                    store.append_journal(&self.pending_log)
                }
            })
        } else if self.pending_log.is_empty() {
            Ok(())
        } else {
            store.append_journal(&self.pending_log)
        };
        match result {
            Ok(()) => {
                self.compact_requested = false;
                self.pending_log.clear();
            }
            Err(e) => self.io_error = Some(e),
        }
    }

    /// Finishes the run: flushes the log and folds the ingest totals
    /// into the detection counters.
    pub fn finish(mut self) -> Result<ServeReport, PersistError> {
        self.flush_log();
        if let Some(e) = self.io_error {
            return Err(PersistError::Io(e));
        }
        let mut stats = self.stats;
        stats.absorb_ingest(&self.ingest);
        Ok(ServeReport {
            source: self.config.source,
            params: self.config.params,
            horizon_us: self.config.horizon.map(|h| h.as_micros()),
            trigger_adds: self.config.trigger_adds,
            ring_capacity: self.config.ring_capacity,
            service_us: self.config.service_us,
            calls: self.calls,
            adds: self.adds,
            verdicts: self.verdicts,
            ingest: self.ingest,
            stats,
            latency: LatencySummary::from_histogram(&self.latency),
        })
    }
}

/// Maps one synthesized source event to its wire form.
fn to_stream_event(source: &EventSource, at: SimTime, kind: SourceEventKind) -> StreamEvent {
    match kind {
        SourceEventKind::Call { uid, interface } => StreamEvent::Ipc {
            at,
            uid,
            ipc_type: source.interface_label(interface),
        },
        SourceEventKind::Add => StreamEvent::JgrAdd { at },
    }
}

/// Runs a full serve session against an in-memory store.
pub fn run_serve(config: &ServeConfig) -> Result<ServeReport, PersistError> {
    let store = crate::MemoryStore::new();
    run_serve_with_store(config, &store)
}

/// Runs a full serve session, journaling accepted events into `store`.
///
/// With `threads ≥ 2` the producer (source + encoder) runs on its own OS
/// thread and ships chunks over a bounded channel — real backpressure,
/// but lossless, so the report is identical to the inline path.
pub fn run_serve_with_store(
    config: &ServeConfig,
    store: &dyn StateStore,
) -> Result<ServeReport, PersistError> {
    let mut defender = StreamDefender::with_store(*config, store);
    let (source, chunk_frames) = (config.source, config.chunk_frames.max(1));
    if config.threads >= 2 {
        // The channel bounds producer run-ahead; MemoryStore is !Send, so
        // journaling stays on the consumer side.
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(4);
        let producer = thread::spawn(move || {
            produce_chunks(source, chunk_frames, |chunk| tx.send(chunk).is_ok());
        });
        for chunk in rx {
            defender.ingest_bytes(&chunk);
        }
        producer.join().expect("producer thread panicked");
    } else {
        produce_chunks(source, chunk_frames, |chunk| {
            defender.ingest_bytes(&chunk);
            true
        });
    }
    defender.finish()
}

/// Synthesizes the stream `source` describes and hands it to `sink` in
/// chunks of `chunk_frames` encoded frames, the first led by the stream
/// header. Stops early when `sink` returns `false`.
fn produce_chunks(
    source: SourceConfig,
    chunk_frames: usize,
    mut sink: impl FnMut(Vec<u8>) -> bool,
) {
    let mut source = EventSource::new(source);
    let mut chunk = stream_header();
    let mut frames = 0usize;
    while let Some(event) = source.next() {
        let event = to_stream_event(&source, event.at, event.kind);
        encode_event(&event, &mut chunk);
        frames += 1;
        if frames >= chunk_frames {
            if !sink(std::mem::take(&mut chunk)) {
                return;
            }
            frames = 0;
        }
    }
    if !chunk.is_empty() {
        sink(chunk);
    }
}

/// What recovery salvaged from a stream journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredStream {
    /// Events decoded before the end (or the first corruption).
    pub events: Vec<StreamEvent>,
    /// Trailing bytes that did not form a whole frame — the torn tail a
    /// crash mid-append leaves.
    pub torn_bytes: usize,
    /// The typed rejection that stopped replay, if any (a torn tail is
    /// *not* a rejection).
    pub reject: Option<FrameReject>,
}

/// Replays a stream journal, salvaging every whole, checksummed frame
/// before the first corruption and tolerating a torn tail. An empty
/// journal (never written) recovers to no events.
pub fn recover_events(store: &dyn StateStore) -> Result<RecoveredStream, PersistError> {
    let bytes = store.load_journal().map_err(PersistError::Io)?;
    let mut decoder = FrameDecoder::new();
    decoder.feed(&bytes);
    let mut events = Vec::new();
    let reject = loop {
        match decoder.next_event() {
            Ok(Some(event)) => events.push(event),
            Ok(None) => break None,
            Err(r) => break Some(r),
        }
    };
    Ok(RecoveredStream {
        events,
        torn_bytes: decoder.pending_bytes(),
        reject,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    fn quick_config() -> ServeConfig {
        ServeConfig {
            source: SourceConfig {
                events_per_sec: 4_000,
                duration: SimDuration::from_millis(250),
                ..SourceConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_is_deterministic() {
        let config = quick_config();
        let a = run_serve(&config).unwrap();
        let b = run_serve(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.ingest.accepted > 0);
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let base = quick_config();
        let inline = run_serve(&base).unwrap();
        for threads in [2u32, 4] {
            let threaded = run_serve(&ServeConfig { threads, ..base }).unwrap();
            assert_eq!(inline, threaded, "threads={threads}");
        }
        // Chunk boundaries are transport, not semantics.
        let odd_chunks = run_serve(&ServeConfig {
            chunk_frames: 7,
            ..base
        })
        .unwrap();
        assert_eq!(inline, odd_chunks);
    }

    #[test]
    fn attacker_is_the_suspect() {
        let report = run_serve(&quick_config()).unwrap();
        assert!(!report.verdicts.is_empty(), "attack must trigger verdicts");
        let attacker = quick_config().source.attacker_uid();
        for verdict in &report.verdicts {
            assert_eq!(verdict.suspect, attacker);
            assert!(verdict.score > 0);
        }
        assert_eq!(report.latency.samples, report.adds);
        assert!(report.latency.p50_us.is_some());
    }

    #[test]
    fn overload_drops_are_counted_and_deterministic() {
        // Service cost far above the arrival gap with a tiny ring: the
        // stream must overrun and the drops must be accounted, not lost.
        let config = ServeConfig {
            ring_capacity: 16,
            service_us: 900,
            ..quick_config()
        };
        let a = run_serve(&config).unwrap();
        assert!(
            a.ingest.dropped_backpressure > 0,
            "expected overload drops, got {:?}",
            a.ingest
        );
        assert_eq!(
            a.ingest.offered,
            a.ingest.accepted + a.ingest.dropped_backpressure
        );
        assert_eq!(a.stats.ingest_dropped, a.ingest.dropped_backpressure);
        let b = run_serve(&config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn journal_compacts_at_verdicts_and_recovers() {
        let store = MemoryStore::new();
        let config = quick_config();
        let report = run_serve_with_store(&config, &store).unwrap();
        assert!(!report.verdicts.is_empty());
        let recovered = recover_events(&store).unwrap();
        assert_eq!(recovered.reject, None);
        assert_eq!(recovered.torn_bytes, 0);
        // Compaction at the last verdict: the journal holds only events
        // accepted after it.
        let last_verdict_at = report.verdicts.last().unwrap().at_us;
        assert!(
            (recovered.events.len() as u64) < report.ingest.accepted,
            "journal must have compacted"
        );
        for event in &recovered.events {
            assert!(event.at().as_micros() >= last_verdict_at);
        }
    }

    #[test]
    fn a_never_written_journal_recovers_to_nothing() {
        let recovered = recover_events(&MemoryStore::new()).unwrap();
        assert_eq!(
            recovered,
            RecoveredStream {
                events: Vec::new(),
                torn_bytes: 0,
                reject: None,
            }
        );
    }

    #[test]
    fn torn_journal_tail_recovers_cleanly() {
        let store = MemoryStore::new();
        let config = quick_config();
        run_serve_with_store(&config, &store).unwrap();
        let mut bytes = store.journal_bytes();
        let whole = recover_events(&store).unwrap();
        assert!(whole.events.len() > 1, "need frames to tear");
        // Tear mid-way through the final frame.
        bytes.truncate(bytes.len() - 5);
        store.set_journal_bytes(bytes);
        let torn = recover_events(&store).unwrap();
        assert_eq!(torn.reject, None);
        assert!(torn.torn_bytes > 0);
        assert_eq!(torn.events.len(), whole.events.len() - 1);
        assert_eq!(torn.events[..], whole.events[..whole.events.len() - 1]);
    }

    #[test]
    fn corrupt_journal_byte_is_a_typed_stop_not_a_panic() {
        let store = MemoryStore::new();
        run_serve_with_store(&quick_config(), &store).unwrap();
        let mut bytes = store.journal_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        store.set_journal_bytes(bytes);
        let recovered = recover_events(&store).unwrap();
        // Either the flipped byte lands in a length field (framing shifts,
        // later frames look torn) or a checksum catches it.
        assert!(recovered.reject.is_some() || recovered.torn_bytes > 0);
    }

    #[test]
    fn an_oversized_label_is_refused_not_journaled() {
        // Recovery refuses a frame past MAX_FRAME_LEN and stops there, so
        // journaling one would also lose every event after it.
        let store = MemoryStore::new();
        let mut defender = StreamDefender::with_store(ServeConfig::default(), &store);
        let ipc = |at: u64, ipc_type: String| StreamEvent::Ipc {
            at: SimTime::from_micros(at),
            uid: Uid::new(10_061),
            ipc_type,
        };
        let accepted = vec![
            ipc(100, "IClipboard.listen".to_owned()),
            StreamEvent::JgrAdd {
                at: SimTime::from_micros(300),
            },
        ];
        defender.ingest(accepted[0].clone());
        defender.ingest(ipc(200, "x".repeat(5_000)));
        defender.ingest(accepted[1].clone());
        assert!(!defender.is_poisoned());
        let report = defender.finish().unwrap();
        assert_eq!(report.ingest.offered, 3);
        assert_eq!(report.ingest.accepted, 2);
        assert_eq!(report.ingest.rejected_malformed, 1);
        assert_eq!((report.calls, report.adds), (1, 1));
        let recovered = recover_events(&store).unwrap();
        assert_eq!(recovered.reject, None);
        assert_eq!(recovered.events, accepted);
    }

    #[test]
    fn poisoned_stream_counts_one_rejection_and_ignores_the_rest() {
        let mut defender = StreamDefender::new(ServeConfig::default());
        let mut bytes = stream_header();
        bytes[8] = 99; // stale version
        defender.ingest_bytes(&bytes);
        assert!(defender.is_poisoned());
        assert_eq!(defender.ingest_stats().rejected_version, 1);
        defender.ingest_bytes(&stream_header());
        assert_eq!(defender.ingest_stats().rejected_version, 1);
        let report = defender.finish().unwrap();
        assert_eq!(report.ingest.accepted, 0);
        assert_eq!(report.stats.ingest_rejected, 1);
    }
}
