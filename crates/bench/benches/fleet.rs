//! T-FLEET: throughput of the sharded campaign engine.
//!
//! Pins three properties of `jgre_core::fleet` on a 10⁴-device campaign:
//!
//! 1. **Determinism** — the 1-thread and 4-thread summaries are equal,
//!    down to the serialized bytes (the shard-count invariance the
//!    proptest checks on small fleets, re-asserted at scale).
//! 2. **Throughput floor** — the single-threaded engine sustains at
//!    least 25 devices/sec at quick scale; the measured rate (hundreds
//!    on a laptop core) goes into the artifact so regressions show up
//!    as a number, not just a pass/fail.
//! 3. **Scaling** — with ≥ 4 hardware threads available, 4 workers beat
//!    1 worker by ≥ 2×. On smaller machines (CI runners with 1–2 cores)
//!    the speedup assert is skipped — sharding cannot beat physics — but
//!    both configurations still run and must agree.

use std::time::Instant;

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::fleet::FleetConfig;
use jgre_core::{run_campaign, ExperimentScale, FleetSummary};
use serde::Serialize;

const PIN_DEVICES: u64 = 10_000;

fn campaign(devices: u64, threads: usize) -> FleetSummary {
    run_campaign(&FleetConfig {
        devices,
        threads,
        ..FleetConfig::new(ExperimentScale::quick())
    })
}

#[derive(Debug, Serialize)]
struct FleetArtifact {
    devices: u64,
    hardware_threads: usize,
    single_thread_s: f64,
    four_thread_s: f64,
    devices_per_sec_1t: f64,
    devices_per_sec_4t: f64,
    speedup: f64,
    speedup_asserted: bool,
    detected: u64,
    exhausted: u64,
}

fn main() {
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A short untimed campaign, so the pinned runs time a warm process.
    campaign(500, 1);

    let start = Instant::now();
    let summary_1t = campaign(PIN_DEVICES, 1);
    let single_thread_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let summary_4t = campaign(PIN_DEVICES, 4);
    let four_thread_s = start.elapsed().as_secs_f64();

    // Shard-count invariance at scale: same summary, same bytes.
    assert_eq!(
        summary_1t, summary_4t,
        "1-thread and 4-thread campaigns must produce identical summaries"
    );
    assert_eq!(
        serde_json::to_string(&summary_1t).unwrap(),
        serde_json::to_string(&summary_4t).unwrap(),
        "summary serialization must be byte-identical across thread counts"
    );

    let devices_per_sec_1t = PIN_DEVICES as f64 / single_thread_s;
    let devices_per_sec_4t = PIN_DEVICES as f64 / four_thread_s;
    let speedup = single_thread_s / four_thread_s;
    let speedup_asserted = hardware_threads >= 4;

    let artifact = FleetArtifact {
        devices: PIN_DEVICES,
        hardware_threads,
        single_thread_s,
        four_thread_s,
        devices_per_sec_1t,
        devices_per_sec_4t,
        speedup,
        speedup_asserted,
        detected: summary_1t.detected,
        exhausted: summary_1t.exhausted,
    };
    let rendered = format!(
        "fleet campaign throughput ({PIN_DEVICES} devices, quick scale, {hardware_threads} hw threads)\n\
         1 worker:  {single_thread_s:>7.2} s  ({devices_per_sec_1t:>7.0} devices/sec)\n\
         4 workers: {four_thread_s:>7.2} s  ({devices_per_sec_4t:>7.0} devices/sec)\n\
         speedup:   {speedup:>7.2}x{}\n",
        if speedup_asserted {
            ""
        } else {
            "  (not asserted: < 4 hardware threads)"
        }
    );
    println!("{rendered}");

    assert!(
        devices_per_sec_1t >= 25.0,
        "single-threaded fleet throughput collapsed: {devices_per_sec_1t:.0} devices/sec"
    );
    if speedup_asserted {
        assert!(
            speedup >= 2.0,
            "4 workers must beat 1 worker by >= 2x on >= 4 hardware threads, got {speedup:.2}x"
        );
    }
    if artifacts_enabled() {
        write_artifact("fleet_throughput", &artifact, &rendered);
    }
}
