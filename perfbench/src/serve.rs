//! `serve`: the streaming defender (`jgre serve --attack`) fed a
//! pre-generated framed stream, first flat out, then as an open loop.
//!
//! Set-up taps `clipboard.addPrimaryClipChangedListener` on a simulated
//! device for the attack delay, as `jgre serve --attack` does, and
//! encodes the whole stream into 256-frame chunks, as `run_serve` does.
//! The flat phase feeds the chunks to `StreamDefender::ingest_bytes` as
//! fast as it returns (throughput). The paced phase offers the same
//! chunks at a fixed wall-clock event rate, each chunk due when its last
//! event has arrived, and times each chunk from its due time until
//! `ingest_bytes` returns (latency). Every pass's `ServeReport` must
//! equal `run_serve` on the same config.

use std::cell::RefCell;
use std::io;
use std::time::{Duration, Instant};

use jgre_attack::AttackVector;
use jgre_core::{tap_attack_events, ExperimentScale};
use jgre_corpus::spec::AospSpec;
use jgre_defense::stream::{
    encode_event, run_serve, stream_header, BoundedRing, FrameDecoder, ServeConfig, ServeReport,
    StreamDefender, StreamEvent,
};
use jgre_defense::{IncrementalScorer, MemoryStore, StateStore};
use jgre_sim::source::{EventSource, SourceConfig, SourceEventKind};
use jgre_sim::SimDuration;
use serde_json::Value;

use crate::calib::{time_setups, Calibrator};
use crate::trace::{num, obj, Samples, Trace};
use crate::{Deadline, Opts, Outcome};

/// The tapped vector (the CLI's `--attack` selector).
const ATTACK: &str = "clipboard.addPrimaryClipChangedListener";
/// Calls per virtual second; adds arrive on top (≈107k events/s total),
/// below the ring's 125k events/s service rate, so nothing is dropped.
const CALLS_PER_SEC: u64 = 80_000;
/// Virtual length of the stream.
const STREAM_MS: u64 = 1_500;
const SHORT_STREAM_MS: u64 = 100;
/// Wall-clock offer rate of the paced phase.
const PACED_EVENTS_PER_SEC: f64 = 150_000.0;
/// A chunk offered later than this after its due time counts as late.
const LATE_MS: f64 = 0.1;
const SETUP_REPS: usize = 41;
/// Chunks between two host-speed measurements (about 0.2 s paced).
const SEGMENT_CHUNKS: usize = 128;
/// Share of the window spent in the flat phase.
const FLAT_SHARE: f64 = 0.35;

/// The generated input of one run.
struct Stream {
    config: ServeConfig,
    /// Framed chunks exactly as `run_serve` hands them to the decoder.
    chunks: Vec<Vec<u8>>,
    /// Frames in each chunk.
    frames: Vec<u64>,
}

impl Stream {
    fn events(&self) -> u64 {
        self.frames.iter().sum()
    }
}

/// Taps the attack and encodes the stream (the workload's set-up).
fn build(opts: &Opts) -> Stream {
    let scale = ExperimentScale::quick().with_seed(opts.seed);
    let spec = AospSpec::android_6_0_1();
    let (_, vector) = AttackVector::resolve(&spec, ATTACK).expect("the attack is in the catalog");
    let tap = tap_attack_events(scale, &vector, 40);
    let attack_delay = tap
        .characteristic_delay()
        .expect("the tapped attack produces IPC→JGR pairs");
    let config = ServeConfig {
        source: SourceConfig {
            seed: opts.seed,
            events_per_sec: CALLS_PER_SEC,
            duration: SimDuration::from_millis(if opts.short {
                SHORT_STREAM_MS
            } else {
                STREAM_MS
            }),
            attack_delay,
            ..SourceConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut source = EventSource::new(config.source);
    let mut chunks = Vec::new();
    let mut frames = Vec::new();
    let mut chunk = stream_header();
    let mut in_chunk = 0u64;
    while let Some(event) = source.next() {
        let event = match event.kind {
            SourceEventKind::Call { uid, interface } => StreamEvent::Ipc {
                at: event.at,
                uid,
                ipc_type: source.interface_label(interface),
            },
            SourceEventKind::Add => StreamEvent::JgrAdd { at: event.at },
        };
        encode_event(&event, &mut chunk);
        in_chunk += 1;
        if in_chunk as usize >= config.chunk_frames {
            chunks.push(std::mem::take(&mut chunk));
            frames.push(in_chunk);
            in_chunk = 0;
        }
    }
    chunks.push(chunk);
    frames.push(in_chunk);
    Stream {
        config,
        chunks,
        frames,
    }
}

/// A [`MemoryStore`] whose journal writes are timed, so the journal's
/// share of `ingest_bytes` shows as its own layer.
#[derive(Debug, Default)]
struct TimedStore {
    inner: MemoryStore,
    /// (is_compaction, ns, bytes) per journal write since the last drain.
    writes: RefCell<Vec<(bool, u64, usize)>>,
}

impl TimedStore {
    fn timed(
        &self,
        compaction: bool,
        bytes: usize,
        f: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        let started = Instant::now();
        let result = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.writes.borrow_mut().push((compaction, ns, bytes));
        result
    }
}

impl StateStore for TimedStore {
    fn load_journal(&self) -> io::Result<Vec<u8>> {
        self.inner.load_journal()
    }
    fn append_journal(&self, bytes: &[u8]) -> io::Result<()> {
        self.timed(false, bytes.len(), || self.inner.append_journal(bytes))
    }
    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()> {
        self.timed(true, bytes.len(), || self.inner.replace_journal(bytes))
    }
    fn load_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.load_checkpoint()
    }
    fn store_checkpoint(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.store_checkpoint(bytes)
    }
}

/// Gate: a pass's report equals the reference, and no event was lost.
fn check_report(out: &mut Outcome, phase: &str, report: &ServeReport, reference: &str) {
    out.attempted += report.ingest.offered;
    out.failed += report.ingest.dropped_backpressure + report.ingest.rejected();
    out.check(report.to_json() == reference, || {
        format!("serve: the {phase} ServeReport differs from run_serve")
    });
}

/// Wall-clock time of one pass, raw and normalised to the reference
/// host, s.
#[derive(Debug, Default, Clone, Copy)]
struct PassTime {
    raw: f64,
    normalised: f64,
}

/// One flat pass; returns the report and its wall time. The host is
/// measured every [`SEGMENT_CHUNKS`] chunks, between two chunks and
/// outside the timed segments.
fn flat_pass(stream: &Stream, calibrator: &mut Calibrator) -> (ServeReport, PassTime) {
    let store = MemoryStore::new();
    let mut time = PassTime::default();
    let mut close = |started: Instant, calibrator: &mut Calibrator| {
        let seconds = started.elapsed().as_secs_f64();
        time.raw += seconds;
        time.normalised += seconds * calibrator.factor();
    };
    calibrator.sample();
    let mut started = Instant::now();
    let mut defender = StreamDefender::with_store(stream.config, &store);
    for (i, chunk) in stream.chunks.iter().enumerate() {
        defender.ingest_bytes(chunk);
        if (i + 1) % SEGMENT_CHUNKS == 0 {
            close(started, calibrator);
            started = Instant::now();
        }
    }
    let report = defender.finish().expect("in-memory journal cannot fail");
    close(started, calibrator);
    (report, time)
}

/// Spins until `due`: sleeping would hand the core back to the host
/// between chunks and time its wake-up instead of the ingest.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Per-chunk figures of the paced phase, ms.
#[derive(Debug, Default)]
struct Paced {
    /// From the chunk's due time until `ingest_bytes` returns, normalised.
    latency: Samples,
    raw_latency: Samples,
    /// From the chunk's due time until it was offered.
    lateness: Samples,
}

/// One paced pass. The host is measured every [`SEGMENT_CHUNKS`] chunks;
/// the offer schedule restarts after each measurement, so the pause
/// delays no chunk.
fn paced_pass(stream: &Stream, calibrator: &mut Calibrator, paced: &mut Paced) -> ServeReport {
    let store = MemoryStore::new();
    let mut defender = StreamDefender::with_store(stream.config, &store);
    let mut segment = Samples::default();
    calibrator.sample();
    let mut t0 = Instant::now() + Duration::from_millis(1);
    let mut arrived = 0u64;
    for (i, (chunk, frames)) in stream.chunks.iter().zip(&stream.frames).enumerate() {
        arrived += frames;
        let due = t0 + Duration::from_secs_f64(arrived as f64 / PACED_EVENTS_PER_SEC);
        wait_until(due);
        let sent = Instant::now();
        defender.ingest_bytes(chunk);
        let done = Instant::now();
        paced.lateness.push((sent - due).as_secs_f64() * 1e3);
        segment.push((done - due).as_secs_f64() * 1e3);
        if (i + 1) % SEGMENT_CHUNKS == 0 || i + 1 == stream.chunks.len() {
            let factor = calibrator.factor();
            paced.raw_latency.extend(&segment);
            paced.latency.extend(&segment.map(|ms| ms * factor));
            segment = Samples::default();
            t0 = Instant::now() + Duration::from_millis(1);
            arrived = 0;
        }
    }
    defender.finish().expect("in-memory journal cannot fail")
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut calibrator = Calibrator::new(1);
    let (raw_setups, setups) = time_setups(
        &mut calibrator,
        if opts.short { 2 } else { SETUP_REPS },
        || {
            std::hint::black_box(build(opts));
        },
    );
    let stream = build(opts);
    let reference = run_serve(&stream.config).expect("in-memory journal cannot fail");
    let (rounds, virtual_latency) = (reference.stats.rounds, reference.latency);
    let mut reference = reference.to_json();
    if opts.corrupt {
        reference = reference.replacen("\"calls\": ", "\"calls\": 1", 1);
    }

    let mut raw_flat = Samples::default();
    let mut flat = Samples::default();
    let deadline = Deadline::after(opts.seconds * FLAT_SHARE);
    while flat.len() == 0 || !deadline.passed() {
        let (report, time) = flat_pass(&stream, &mut calibrator);
        check_report(&mut out, "flat", &report, &reference);
        raw_flat.push(report.ingest.offered as f64 / time.raw);
        flat.push(report.ingest.offered as f64 / time.normalised);
    }

    let mut paced = Paced::default();
    let mut paced_passes = 0u64;
    let deadline = Deadline::after(opts.seconds * (1.0 - FLAT_SHARE));
    while paced_passes == 0 || !deadline.passed() {
        let report = paced_pass(&stream, &mut calibrator, &mut paced);
        check_report(&mut out, "paced", &report, &reference);
        paced_passes += 1;
    }
    let Paced {
        latency,
        raw_latency,
        lateness,
    } = paced;

    let late = lateness.count_above(LATE_MS);
    out.metric("throughput_per_s", flat.median(), "1/s");
    out.metric("latency_p50_ms", latency.median(), "ms");
    out.metric("setup_s", setups.median(), "s");
    out.sample("throughput_per_s", &flat);
    out.sample("latency_ms", &latency);
    out.sample("generator_lateness_ms", &lateness);
    out.sample("setup_s", &setups);
    out.sample("raw.throughput_per_s", &raw_flat);
    out.sample("raw.latency_ms", &raw_latency);
    out.sample("raw.setup_s", &raw_setups);
    out.sample("host.kernel_ms", &calibrator.kernel_ms());
    out.extra("latency_p90_ms", num(latency.quantile(0.9)));
    out.extra("latency_p99_ms", num(latency.quantile(0.99)));
    out.extra(
        "generator",
        obj(vec![
            ("events_per_sec", num(PACED_EVENTS_PER_SEC)),
            ("lateness_max_ms", num(lateness.quantile(1.0))),
            (
                "late_share",
                num(late as f64 / lateness.len().max(1) as f64),
            ),
            ("late_threshold_ms", num(LATE_MS)),
        ]),
    );
    // ServeReport.latency is the ring model's virtual arrival→scored lag,
    // not wall-clock time; it is recorded here and never reported as a
    // latency metric.
    out.extra(
        "virtual_time_latency_us",
        obj(vec![
            (
                "p50",
                virtual_latency.p50_us.map_or(Value::Null, Value::UInt),
            ),
            (
                "p99",
                virtual_latency.p99_us.map_or(Value::Null, Value::UInt),
            ),
        ]),
    );
    out.count("serve.events", stream.events());
    out.count("defense.scorer.passes", rounds);
    out
}

/// Times each layer `ingest_bytes` runs, by driving the stream's public
/// pieces one at a time over the same events: decoder, encoder, ring and
/// incremental scorer (replaying `StreamDefender`'s pass/reset rule).
fn component_probe(stream: &Stream, trace: &mut Trace) -> Probe {
    let mut decoder = FrameDecoder::new();
    let mut events = Vec::new();
    for chunk in &stream.chunks {
        trace.time("defense.frame.decode", || {
            decoder.feed(chunk);
            while let Ok(Some(event)) = decoder.next_event() {
                events.push(event);
            }
        });
    }
    let mut encoded = Vec::new();
    for block in events.chunks(stream.config.chunk_frames) {
        encoded.clear();
        trace.time("defense.frame.encode", || {
            for event in block {
                encode_event(event, &mut encoded);
            }
        });
    }
    let config = stream.config;
    let mut ring = BoundedRing::new(config.ring_capacity, config.service_us);
    let mut accepted = Vec::with_capacity(events.len());
    for block in events.chunks(config.chunk_frames) {
        trace.time("defense.ring.offer", || {
            for event in block {
                if ring.offer(event.at().as_micros()).is_some() {
                    accepted.push(event);
                }
            }
        });
    }
    let mut scorer = match config.horizon {
        Some(h) => IncrementalScorer::with_horizon(config.params, h),
        None => IncrementalScorer::new(config.params),
    };
    let (mut passes, mut verdicts, mut since_pass) = (0u64, 0u64, 0u64);
    for block in accepted.chunks(config.chunk_frames) {
        let push = trace.start();
        for event in block {
            match event {
                StreamEvent::Ipc { at, uid, ipc_type } => scorer.push_ipc(*uid, ipc_type, *at),
                StreamEvent::JgrAdd { at } => {
                    scorer.push_add(*at);
                    since_pass += 1;
                    if since_pass >= config.trigger_adds {
                        since_pass = 0;
                        passes += 1;
                        let report = trace.time("defense.scorer.report", || scorer.report());
                        if report.top().is_some_and(|t| t.score > 0) {
                            verdicts += 1;
                            trace.time("defense.scorer.reset", || scorer.reset());
                        }
                    }
                }
            }
        }
        trace.end("defense.scorer.push", push);
    }
    Probe {
        events: events.len() as u64,
        accepted: accepted.len() as u64,
        passes,
        verdicts,
    }
}

/// What the component probe counted.
struct Probe {
    events: u64,
    accepted: u64,
    passes: u64,
    verdicts: u64,
}

/// One flat pass with a span around every `ingest_bytes` call and the
/// journal writes it makes as child spans.
fn traced_flat_pass(stream: &Stream, trace: &mut Trace) -> (ServeReport, f64, u64, u64) {
    let store = TimedStore::default();
    let (mut journal_bytes, mut compactions) = (0u64, 0u64);
    let mut drain = |trace: &mut Trace| {
        for (compaction, ns, bytes) in store.writes.borrow_mut().drain(..) {
            if compaction {
                compactions += 1;
                trace.record("defense.journal.compact", ns);
            } else {
                journal_bytes += bytes as u64;
                trace.record("defense.journal.append", ns);
            }
        }
    };
    let started = Instant::now();
    let mut defender = StreamDefender::with_store(stream.config, &store);
    for chunk in &stream.chunks {
        let ingest = trace.start();
        defender.ingest_bytes(chunk);
        drain(trace);
        trace.end("defense.stream.ingest", ingest);
    }
    let report = defender.finish().expect("in-memory journal cannot fail");
    drain(trace);
    (
        report,
        started.elapsed().as_secs_f64(),
        journal_bytes,
        compactions,
    )
}

pub fn traced(opts: &Opts, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let stream = build(opts);
    let reference = run_serve(&stream.config).expect("in-memory journal cannot fail");
    let reference_json = reference.to_json();

    let mut untraced_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut trace = Trace::default();
    let mut journal = None;
    let mut calibrator = Calibrator::new(1);
    let deadline = Deadline::after(seconds);
    while traced_wall.len() == 0 || !deadline.passed() {
        let (report, time) = flat_pass(&stream, &mut calibrator);
        check_report(&mut out, "flat", &report, &reference_json);
        untraced_wall.push(time.raw);
        let (report, wall, bytes, compactions) = traced_flat_pass(&stream, &mut trace);
        check_report(&mut out, "traced flat", &report, &reference_json);
        traced_wall.push(wall);
        journal.get_or_insert((bytes, compactions));
    }
    let (journal_bytes, compactions) = journal.expect("at least one traced pass");

    let mut probe_trace = Trace::default();
    let probe = component_probe(&stream, &mut probe_trace);
    out.check(probe.passes == reference.stats.rounds, || {
        format!(
            "serve: probe ran {} scoring passes, the service {}",
            probe.passes, reference.stats.rounds
        )
    });
    out.check(probe.verdicts == reference.verdicts.len() as u64, || {
        "serve: probe verdict count differs from the service's".to_owned()
    });
    let per_event =
        |name: &str, events: u64| probe_trace.get(name).self_ns as f64 / events.max(1) as f64;
    let ingest = trace.get("defense.stream.ingest");

    out.metric(
        "defense.frame.decode_ns_per_event",
        per_event("defense.frame.decode", probe.events),
        "ns",
    );
    out.metric(
        "defense.frame.encode_ns_per_event",
        per_event("defense.frame.encode", probe.events),
        "ns",
    );
    out.metric(
        "defense.ring.offer_ns",
        per_event("defense.ring.offer", probe.events),
        "ns",
    );
    out.metric(
        "defense.scorer.push_ns",
        per_event("defense.scorer.push", probe.accepted),
        "ns",
    );
    out.metric(
        "defense.scorer.report_us",
        probe_trace.get("defense.scorer.report").mean_ns() / 1e3,
        "us",
    );
    out.metric("defense.scorer.passes", probe.passes as f64, "count");
    out.metric(
        "defense.journal.append_us",
        trace.get("defense.journal.append").mean_ns() / 1e3,
        "us",
    );
    out.metric("defense.journal.bytes", journal_bytes as f64, "bytes");
    out.metric("defense.journal.compactions", compactions as f64, "count");
    out.metric(
        "defense.stream.ingest_self_us",
        ingest.self_ns as f64 / ingest.count.max(1) as f64 / 1e3,
        "us",
    );
    // The probe's layers over the whole stream plus one pass's journal
    // writes, against an untraced flat pass over the same stream.
    let journal_ns = (trace.get("defense.journal.append").total_ns
        + trace.get("defense.journal.compact").total_ns) as f64
        / traced_wall.len() as f64;
    let attributed_ns = [
        "defense.frame.decode",
        "defense.ring.offer",
        "defense.scorer.push",
    ]
    .iter()
    .map(|name| probe_trace.get(name).total_ns as f64)
    .sum::<f64>()
        + journal_ns;
    out.metric(
        "trace.serve.unattributed_share",
        1.0 - attributed_ns / (untraced_wall.median() * 1e9),
        "ratio",
    );
    out.metric(
        "trace.serve.overhead_share",
        traced_wall.median() / untraced_wall.median() - 1.0,
        "ratio",
    );
    out.count("defense.scorer.passes", probe.passes);
    out.sample("serve.untraced_pass_s", &untraced_wall);
    out.sample("serve.traced_pass_s", &traced_wall);
    out.extra("serve.spans", trace.to_value());
    out.extra("serve.probe_spans", probe_trace.to_value());
    out
}
