//! T-STREAM: throughput and latency of the streaming defender.
//!
//! Pins three properties of `jgre_defense::stream` on the synthetic
//! telemetry source:
//!
//! 1. **Determinism** — the 1-thread and 2-thread serve reports are
//!    equal down to the serialized bytes (the invariance the service
//!    tests check on short streams, re-asserted at benchmark scale).
//! 2. **Sustained throughput** — the full pipeline (encode → framed
//!    decode → ring → incremental scorer) clears at least 50k events/sec
//!    of wall-clock ingest; the measured rate plus the virtual-time
//!    p50/p99 detection lags go into the artifact so regressions show up
//!    as numbers.
//! 3. **Incrementality** — scoring a poll by snapshotting the persistent
//!    [`IncrementalScorer`] beats rebuilding `segment_tree_scores` from
//!    the accumulated log on every poll by ≥ 5× once the window holds
//!    ≥ 4096 events, while producing the identical final report.

use std::collections::BTreeMap;
use std::time::Instant;

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_defense::stream::{run_serve, ServeConfig};
use jgre_defense::{segment_tree_scores, IncrementalScorer, ScoreParams};
use jgre_sim::source::{EventSource, SourceConfig, SourceEventKind};
use jgre_sim::{SimDuration, SimTime, Uid};
use serde::Serialize;

/// One virtual second at the default 10k events/sec.
fn pin_config() -> ServeConfig {
    ServeConfig::default()
}

/// The replayed poll workload: the synthetic stream's events plus a
/// scoring pass every `poll_every` adds, shared by both contenders.
struct PollWorkload {
    events: Vec<(SimTime, Option<(Uid, String)>)>,
    poll_every: u64,
    window_events: usize,
}

impl PollWorkload {
    fn synthesize() -> Self {
        let source_config = SourceConfig {
            duration: SimDuration::from_millis(600),
            ..SourceConfig::default()
        };
        let mut source = EventSource::new(source_config);
        let mut events = Vec::new();
        while let Some(event) = source.next() {
            let call = match event.kind {
                SourceEventKind::Call { uid, interface } => {
                    Some((uid, source.interface_label(interface)))
                }
                SourceEventKind::Add => None,
            };
            events.push((event.at, call));
        }
        let adds = events.iter().filter(|(_, c)| c.is_none()).count() as u64;
        Self {
            events,
            poll_every: adds / 24,
            window_events: 0,
        }
    }

    /// Persistent correlator: every event enters once; a poll is a
    /// snapshot.
    fn run_incremental(&self, params: ScoreParams) -> (u64, u64) {
        let mut scorer = IncrementalScorer::new(params);
        let mut adds = 0u64;
        let mut polls = 0u64;
        let mut last_top = 0u64;
        for (at, call) in &self.events {
            match call {
                Some((uid, ipc_type)) => scorer.push_ipc(*uid, ipc_type, *at),
                None => {
                    scorer.push_add(*at);
                    adds += 1;
                    if adds.is_multiple_of(self.poll_every) {
                        polls += 1;
                        last_top = scorer.report().top().map(|t| t.score).unwrap_or_default();
                    }
                }
            }
        }
        (polls, last_top)
    }

    /// The pre-streaming defender: every poll rebuilds the histogram
    /// forest from the whole accumulated log.
    fn run_rebuild(&self, params: ScoreParams) -> (u64, u64) {
        let mut ipc_by_uid: BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>> = BTreeMap::new();
        let mut jgr_adds: Vec<SimTime> = Vec::new();
        let mut polls = 0u64;
        let mut last_top = 0u64;
        for (at, call) in &self.events {
            match call {
                Some((uid, ipc_type)) => ipc_by_uid
                    .entry(*uid)
                    .or_default()
                    .entry(ipc_type.clone())
                    .or_default()
                    .push(*at),
                None => {
                    jgr_adds.push(*at);
                    if (jgr_adds.len() as u64).is_multiple_of(self.poll_every) {
                        polls += 1;
                        last_top = segment_tree_scores(&ipc_by_uid, &jgr_adds, params)
                            .top()
                            .map(|t| t.score)
                            .unwrap_or_default();
                    }
                }
            }
        }
        (polls, last_top)
    }
}

#[derive(Debug, Serialize)]
struct StreamingArtifact {
    events_offered: u64,
    events_accepted: u64,
    verdicts: u64,
    wall_events_per_sec_1t: f64,
    wall_events_per_sec_2t: f64,
    latency_p50_us: Option<u64>,
    latency_p99_us: Option<u64>,
    latency_max_us: Option<u64>,
    window_events: usize,
    poll_count: u64,
    incremental_s: f64,
    rebuild_s: f64,
    incremental_speedup: f64,
}

fn main() {
    // --- sustained throughput + latency quantiles --------------------
    let config = pin_config();
    let start = Instant::now();
    let report_1t = run_serve(&config).unwrap();
    let serve_1t_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report_2t = run_serve(&ServeConfig {
        threads: 2,
        ..config
    })
    .unwrap();
    let serve_2t_s = start.elapsed().as_secs_f64();

    assert_eq!(
        report_1t, report_2t,
        "1-thread and 2-thread serve must produce identical reports"
    );
    assert_eq!(
        report_1t.to_json(),
        report_2t.to_json(),
        "serve report serialization must be byte-identical across thread counts"
    );
    assert!(
        !report_1t.verdicts.is_empty(),
        "the synthetic attacker must be caught"
    );
    let p50 = report_1t.latency.p50_us.expect("adds were measured");
    let p99 = report_1t.latency.p99_us.expect("adds were measured");
    assert!(p50 <= p99, "quantiles must be ordered: p50={p50} p99={p99}");
    // At 10k events/sec the ring (8µs service) never saturates: virtual
    // lag stays bounded by a few service quanta.
    assert!(p99 < 1_000, "virtual detection lag exploded: p99={p99}µs");

    let wall_events_per_sec_1t = report_1t.ingest.offered as f64 / serve_1t_s;
    let wall_events_per_sec_2t = report_2t.ingest.offered as f64 / serve_2t_s;
    assert!(
        wall_events_per_sec_1t >= 50_000.0,
        "streaming ingest collapsed: {wall_events_per_sec_1t:.0} events/sec"
    );

    // --- incremental vs rebuild-per-poll -----------------------------
    let params = ScoreParams::default();
    let mut workload = PollWorkload::synthesize();
    workload.window_events = workload.events.len();
    assert!(
        workload.window_events >= 4_096,
        "speedup is only claimed at window >= 4096 events, got {}",
        workload.window_events
    );
    assert!(workload.poll_every > 0, "workload must poll");

    // Warm up allocators and caches on both paths before timing.
    let _ = workload.run_incremental(params);

    let start = Instant::now();
    let (inc_polls, inc_top) = workload.run_incremental(params);
    let incremental_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (reb_polls, reb_top) = workload.run_rebuild(params);
    let rebuild_s = start.elapsed().as_secs_f64();

    assert_eq!(inc_polls, reb_polls, "both paths must poll identically");
    assert_eq!(
        inc_top, reb_top,
        "incremental and rebuild-per-poll must agree on the final score"
    );
    let incremental_speedup = rebuild_s / incremental_s;
    assert!(
        incremental_speedup >= 5.0,
        "incremental correlation must beat rebuild-per-poll by >= 5x at \
         window {} (got {incremental_speedup:.1}x: incremental {incremental_s:.3}s, \
         rebuild {rebuild_s:.3}s)",
        workload.window_events
    );

    let artifact = StreamingArtifact {
        events_offered: report_1t.ingest.offered,
        events_accepted: report_1t.ingest.accepted,
        verdicts: report_1t.verdicts.len() as u64,
        wall_events_per_sec_1t,
        wall_events_per_sec_2t,
        latency_p50_us: report_1t.latency.p50_us,
        latency_p99_us: report_1t.latency.p99_us,
        latency_max_us: report_1t.latency.max_us,
        window_events: workload.window_events,
        poll_count: inc_polls,
        incremental_s,
        rebuild_s,
        incremental_speedup,
    };
    let rendered = format!(
        "streaming defender throughput (1 virtual second @ 10k events/sec)\n\
         ingest:    {} offered, {} accepted, {} verdicts\n\
         wall rate: {wall_events_per_sec_1t:>9.0} events/sec (1t), \
         {wall_events_per_sec_2t:>9.0} events/sec (2t)\n\
         latency:   p50={p50}µs p99={p99}µs max={}µs (virtual arrival→scored)\n\
         polls:     {inc_polls} over a {}-event window\n\
         incremental {incremental_s:>7.3} s vs rebuild-per-poll {rebuild_s:>7.3} s \
         — {incremental_speedup:.1}x\n",
        report_1t.ingest.offered,
        report_1t.ingest.accepted,
        report_1t.verdicts.len(),
        report_1t.latency.max_us.unwrap_or_default(),
        artifact.window_events,
    );
    println!("{rendered}");
    if artifacts_enabled() {
        write_artifact("streaming_throughput", &artifact, &rendered);
    }
}
