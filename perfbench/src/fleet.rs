//! `fleet`: a closed loop with one worker over the 57-vector catalog at
//! quick scale (device *i* drives vector *i* mod 57).
//!
//! The untraced loop calls `jgre_core::run_campaign_observed`, the exact
//! path of `jgre fleet --threads 1`. The traced loop replays the same
//! per-device semantics from the public pieces (`System::boot_with_spec`,
//! `JgreDefender::install`, `System::call_service`, `JgreDefender::poll`)
//! so each layer gets its own span; the gate requires both loops to
//! produce equal `DeviceRun`s.

use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use jgre_attack::AttackVector;
use jgre_core::fleet::{campaign_catalog, DeviceArena, DeviceRun, FleetConfig};
use jgre_core::{run_campaign_observed, ExperimentScale, FleetSummary};
use jgre_corpus::spec::AospSpec;
use jgre_defense::JgreDefender;
use jgre_framework::{FrameworkError, System};
use jgre_sim::stream_seed;

use crate::calib::{time_setups, Calibrator};
use crate::trace::{num, Samples, Trace};
use crate::{Deadline, Opts, Outcome};

/// Devices per pass: every catalog vector once.
const DEVICES: u64 = 57;
const SETUP_REPS: usize = 41;

fn config(opts: &Opts) -> FleetConfig {
    FleetConfig {
        devices: DEVICES,
        threads: 1,
        campaign_seed: opts.seed,
        ..FleetConfig::new(ExperimentScale::quick())
    }
}

/// The program-side set-up `run_campaign` does before its first device:
/// catalog (spec synthesis), arena (a second spec), first boot.
fn setup(config: &FleetConfig) {
    let catalog = campaign_catalog(config);
    let mut arena = DeviceArena::new();
    arena.boot(config.scale.with_seed(stream_seed(config.campaign_seed, 0)));
    std::hint::black_box((&catalog, &arena));
}

/// One untraced pass; returns the summary, the per-device latencies in
/// device order (ms, from the previous device's completion) and the pass
/// wall time (s).
fn campaign_pass(
    config: &FleetConfig,
    keep_runs: bool,
) -> (FleetSummary, Vec<DeviceRun>, Vec<f64>, f64) {
    let marks = Mutex::new(Vec::with_capacity(DEVICES as usize));
    let runs = Mutex::new(Vec::new());
    let started = Instant::now();
    let summary = run_campaign_observed(config, |run| {
        marks.lock().expect("observer mutex").push(Instant::now());
        if keep_runs {
            runs.lock().expect("observer mutex").push(run.clone());
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(DEVICES as usize);
    let mut previous = started;
    for mark in marks.into_inner().expect("observer mutex") {
        latencies.push((mark - previous).as_secs_f64() * 1e3);
        previous = mark;
    }
    let runs = runs.into_inner().expect("observer mutex");
    (summary, runs, latencies, wall)
}

/// The traced replay of `run_device` for every device of `config`.
fn traced_pass(
    config: &FleetConfig,
    catalog: &[AttackVector],
    trace: &mut Trace,
) -> Vec<DeviceRun> {
    let spec = Rc::new(AospSpec::android_6_0_1());
    let budget = config
        .max_calls
        .unwrap_or(config.scale.jgr_capacity as u64 * 4);
    let mut slot: Option<(System, JgreDefender)> = None;
    let mut runs = Vec::with_capacity(config.devices as usize);
    for device_id in 0..config.devices {
        let attack = (device_id % catalog.len() as u64) as usize;
        let vector = &catalog[attack];
        let seed = stream_seed(config.campaign_seed, device_id);
        let scale = config.scale.with_seed(seed);

        // DeviceArena::boot: a fresh system and defender replace the slot.
        let boot = trace.start();
        let mut system = trace.time("framework.boot", || {
            System::boot_with_spec(scale.system_config(), Rc::clone(&spec))
        });
        let defender = trace.time("defense.install", || {
            JgreDefender::install(&mut system, scale.defender_config())
                .expect("scale presets produce a valid defender config")
        });
        let (system, defender) = slot.insert((system, defender));
        trace.end("core.arena_boot", boot);

        let mal = system.install_app(
            format!("com.malware.{}.{}", vector.service, vector.method),
            vector.permissions.iter().copied(),
        );
        let started = system.now();
        let mut detections = Vec::new();
        let mut calls = 0u64;
        let mut victim_survived = true;
        let mut exhaustion_time_us = None;
        for _ in 0..budget {
            let result = trace.time("framework.call", || {
                system.call_service(mal, &vector.service, &vector.method, vector.call_options())
            });
            match result {
                Ok(outcome) => {
                    // DefendedDevice::call_service polls after a dispatch.
                    loop {
                        let poll = trace.start();
                        let detection = defender.poll(system);
                        trace.end("defense.poll", poll);
                        match detection {
                            Some(d) => detections.push(d),
                            None => break,
                        }
                    }
                    calls += 1;
                    if outcome.host_aborted {
                        victim_survived = false;
                    }
                }
                Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => {
                    victim_survived = false;
                }
                Err(e) => panic!("fleet device {device_id} on {}: {e}", vector.label()),
            }
            if !victim_survived {
                exhaustion_time_us = Some(system.now().saturating_since(started).as_micros());
                break;
            }
            if !detections.is_empty() {
                break;
            }
        }
        let detection_time_us = detections
            .first()
            .map(|d: &jgre_defense::DetectionOutcome| {
                d.report().detected_at.saturating_since(started).as_micros()
            });
        let attacker_killed = detections.iter().any(|d| d.report().killed.contains(&mal));
        runs.push(DeviceRun {
            device: device_id,
            seed,
            attack,
            interface: vector.label(),
            calls,
            victim_survived,
            attacker_killed,
            detections,
            detection_time_us,
            exhaustion_time_us,
        });
    }
    runs
}

/// Gate: the traced replay reproduces the campaign's per-device runs.
fn check_replay(out: &mut Outcome, reference: &[DeviceRun], replay: &[DeviceRun]) {
    let first_diff = reference.iter().zip(replay).position(|(a, b)| a != b);
    out.check(reference.len() == replay.len() && first_diff.is_none(), || {
        format!(
            "fleet: traced DeviceRuns differ from run_campaign (device {first_diff:?}, {} vs {} runs)",
            reference.len(),
            replay.len()
        )
    });
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let config = config(opts);
    let mut calibrator = Calibrator::new(1);
    let (raw_setups, setups) = time_setups(
        &mut calibrator,
        if opts.short { 3 } else { SETUP_REPS },
        || setup(&config),
    );

    // Warm-up pass, which also records the reference runs for the gate.
    let (reference, mut reference_runs, _, _) = campaign_pass(&config, true);
    if opts.corrupt {
        reference_runs[0].calls += 1;
    }

    let mut raw_throughput = Samples::default();
    let mut throughput = Samples::default();
    let mut latencies = Samples::default();
    // Device latencies are multimodal by vector, so their plain median
    // can jump between modes with a small change of host speed. The
    // reported p50 is the mean over the catalog's vectors of each
    // vector's median over the passes.
    let mut per_vector = vec![Samples::default(); DEVICES as usize];
    calibrator.sample();
    let deadline = Deadline::after(opts.seconds);
    while throughput.len() == 0 || !deadline.passed() {
        let (summary, _, device_ms, wall) = campaign_pass(&config, false);
        let factor = calibrator.factor();
        out.check(summary == reference, || {
            "fleet: a pass's FleetSummary differs from the first pass".to_owned()
        });
        out.attempted += summary.devices;
        out.failed += summary.exhausted;
        raw_throughput.push(summary.devices as f64 / wall);
        throughput.push(summary.devices as f64 / (wall * factor));
        for (vector, ms) in per_vector.iter_mut().zip(&device_ms) {
            vector.push(ms * factor);
            latencies.push(ms * factor);
        }
    }

    let catalog = campaign_catalog(&config);
    let replay = traced_pass(&config, &catalog, &mut Trace::default());
    check_replay(&mut out, &reference_runs, &replay);

    out.metric("throughput_per_s", throughput.median(), "1/s");
    let vector_p50 = per_vector.iter().map(Samples::median).sum::<f64>() / DEVICES as f64;
    out.metric("latency_p50_ms", vector_p50, "ms");
    out.metric("setup_s", setups.median(), "s");
    out.sample("throughput_per_s", &throughput);
    out.sample("latency_ms", &latencies);
    out.sample("setup_s", &setups);
    out.sample("raw.throughput_per_s", &raw_throughput);
    out.sample("raw.setup_s", &raw_setups);
    out.sample("host.kernel_ms", &calibrator.kernel_ms());
    out.extra("latency_p90_ms", num(latencies.quantile(0.9)));
    out.extra("latency_p99_ms", num(latencies.quantile(0.99)));
    out.count("framework.calls", reference.calls);
    out.count("fleet.exhausted", reference.exhausted);
    out
}

pub fn traced(opts: &Opts, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let config = config(opts);
    let catalog = campaign_catalog(&config);
    let (reference, reference_runs, _, _) = campaign_pass(&config, true);

    // Alternate untraced and traced passes; their wall-time difference is
    // the tracing overhead.
    let mut untraced_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut trace = Trace::default();
    let deadline = Deadline::after(seconds);
    while traced_wall.len() == 0 || !deadline.passed() {
        let (summary, _, _, wall) = campaign_pass(&config, false);
        untraced_wall.push(wall);
        out.attempted += summary.devices;
        out.failed += summary.exhausted;

        let started = Instant::now();
        let replay = traced_pass(&config, &catalog, &mut trace);
        traced_wall.push(started.elapsed().as_secs_f64());
        check_replay(&mut out, &reference_runs, &replay);
    }
    let per_us = |name: &str| trace.get(name).mean_ns() / 1e3;
    let poll = trace.get("defense.poll");
    let escalations: usize = reference_runs.iter().map(|r| r.detections.len()).sum();

    out.metric("core.arena_boot_us", per_us("core.arena_boot"), "us");
    out.metric("framework.boot_us", per_us("framework.boot"), "us");
    out.metric("framework.call_us", per_us("framework.call"), "us");
    out.metric("framework.calls", reference.calls as f64, "count");
    out.metric("defense.install_us", per_us("defense.install"), "us");
    out.metric("defense.poll_us.p50", poll.durations.median() / 1e3, "us");
    out.metric(
        "defense.poll_us.p99",
        poll.durations.quantile(0.99) / 1e3,
        "us",
    );
    out.metric("defense.escalations", escalations as f64, "count");
    out.metric(
        "trace.fleet.unattributed_share",
        1.0 - trace.self_ns_total() as f64 / (traced_wall.sum() * 1e9),
        "ratio",
    );
    out.metric(
        "trace.fleet.overhead_share",
        traced_wall.median() / untraced_wall.median() - 1.0,
        "ratio",
    );
    out.count("framework.calls", reference.calls);
    out.sample("fleet.untraced_pass_s", &untraced_wall);
    out.sample("fleet.traced_pass_s", &traced_wall);
    out.extra("fleet.spans", trace.to_value());
    out
}
