//! Ablations called out in DESIGN.md:
//!
//! 1. **Histogram structures** for Algorithm 1 across Δ widths and bin
//!    widths: the deployed difference array (two writes per vote), §V-D.2's
//!    lazy segment tree (O(log bins) per vote) and the naive flat array
//!    (one write per bin the vote covers).
//! 2. **Alarm-threshold sensitivity**: how the record/trigger thresholds
//!    move the detection point (calls survived before the alarm).
//! 3. **Δ sensitivity** of the attacker/benign score separation (the
//!    Figure 9 axis).
//! 4. **Protection placement**: helper-side (client) vs server-side
//!    per-process threshold under a direct-Binder attacker.
//! 5. **Multi-path evasion (§VI)**: rotating execution paths dilutes the
//!    single-bucket correlator's score; path classification restores it.

use criterion::{criterion_group, BenchmarkId, Criterion};
use jgre_attack::{run_interleaved, Actor, ActorKind, AttackVector};
use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_corpus::spec::AospSpec;
use jgre_defense::{segment_tree_scores, DefenderConfig, JgreDefender, ScoreParams};
use jgre_framework::{CallOptions, CallStatus, System, SystemConfig};
use jgre_oracles::{naive_scores, SegmentTree};
use jgre_sim::{SimDuration, SimTime, Uid};
use serde::Serialize;

type IpcByUid = std::collections::BTreeMap<Uid, std::collections::BTreeMap<String, Vec<SimTime>>>;

fn fixture(adds: usize) -> (IpcByUid, Vec<SimTime>) {
    let mut ipc: IpcByUid = Default::default();
    let mut jgr = Vec::new();
    for k in 0..adds as u64 {
        let call = 5_000 + k * 2_100;
        ipc.entry(Uid::new(10_061))
            .or_default()
            .entry("I.attack".into())
            .or_default()
            .push(SimTime::from_micros(call));
        jgr.push(SimTime::from_micros(call + 900));
        // Benign noise.
        let b = 5_137 + k * 6_733 + (k * k * 17) % 1_811;
        ipc.entry(Uid::new(10_065))
            .or_default()
            .entry("I.benign".into())
            .or_default()
            .push(SimTime::from_micros(b));
    }
    (ipc, jgr)
}

#[derive(Debug, Serialize)]
struct ThresholdRow {
    record_threshold: usize,
    trigger_threshold: usize,
    detected_at_calls: u64,
    victim_jgr_at_detection: usize,
}

/// Ablation 2: sweep the alarm thresholds and report when detection fires.
fn threshold_sensitivity() -> Vec<ThresholdRow> {
    let mut rows = Vec::new();
    for (record, trigger) in [
        (100usize, 300usize),
        (250, 750),
        (500, 1_500),
        (1_000, 2_400),
    ] {
        let mut system = System::boot_with(SystemConfig {
            seed: 5,
            jgr_capacity: Some(3_200),
            ..SystemConfig::default()
        });
        let defender = JgreDefender::install(
            &mut system,
            DefenderConfig {
                record_threshold: record,
                trigger_threshold: trigger,
                normal_level: record / 2,
                ..DefenderConfig::default()
            },
        )
        .expect("bench defender config is valid");
        let mal = system.install_app("com.evil", []);
        let mut calls = 0u64;
        let detected = loop {
            let o = system
                .call_service(
                    mal,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .expect("clipboard registered");
            calls += 1;
            assert!(!o.host_aborted, "defense must fire before exhaustion");
            if let Some(d) = defender.poll(&mut system) {
                break d;
            }
        };
        rows.push(ThresholdRow {
            record_threshold: record,
            trigger_threshold: trigger,
            detected_at_calls: calls,
            victim_jgr_at_detection: detected
                .scores
                .first()
                .map(|s| s.score as usize)
                .unwrap_or(0),
        });
    }
    rows
}

#[derive(Debug, Serialize)]
struct DeltaRow {
    delta_us: u64,
    attacker_score: u64,
    benign_score: u64,
}

/// Ablation 3: Δ sweep on a fixed workload.
fn delta_sensitivity() -> Vec<DeltaRow> {
    let (ipc, jgr) = fixture(4_000);
    let mut rows = Vec::new();
    for delta_us in [40u64, 79, 400, 1_000, 1_900, 3_583, 6_000] {
        let report = segment_tree_scores(
            &ipc,
            &jgr,
            ScoreParams {
                delta: SimDuration::from_micros(delta_us),
                ..ScoreParams::default()
            },
        );
        let score_of = |uid: Uid| {
            report
                .scores
                .iter()
                .find(|s| s.uid == uid)
                .map(|s| s.score)
                .unwrap_or(0)
        };
        rows.push(DeltaRow {
            delta_us,
            attacker_score: score_of(Uid::new(10_061)),
            benign_score: score_of(Uid::new(10_065)),
        });
    }
    rows
}

#[derive(Debug, Serialize)]
struct PlacementRow {
    placement: &'static str,
    attacker_retained_after_300_calls: usize,
}

/// Ablation 4: the same threshold enforced client-side vs server-side.
fn placement_comparison() -> Vec<PlacementRow> {
    // Client-side (wifi helper, limit 50) — attacker skips the helper.
    let mut system = System::boot_with(SystemConfig {
        seed: 6,
        jgr_capacity: Some(5_000),
        ..SystemConfig::default()
    });
    let mal = system.install_app("com.evil", [jgre_corpus::spec::Permission::WakeLock]);
    for _ in 0..300 {
        system
            .call_service(mal, "wifi", "acquireWifiLock", CallOptions::default())
            .expect("wifi registered");
    }
    let helper_side = system.retained_entries("wifi", "acquireWifiLock");

    // Server-side (display, limit 1) — attacker is actually bounded.
    let mut system = System::boot_with(SystemConfig {
        seed: 6,
        jgr_capacity: Some(5_000),
        ..SystemConfig::default()
    });
    let mal = system.install_app("com.evil", []);
    let mut completed = 0usize;
    for _ in 0..300 {
        if system
            .call_service(mal, "display", "registerCallback", CallOptions::default())
            .expect("display registered")
            .status
            == CallStatus::Completed
        {
            completed += 1;
        }
    }
    let server_side = system.retained_entries("display", "registerCallback");
    assert_eq!(completed, server_side);
    vec![
        PlacementRow {
            placement: "helper (client-side) threshold, direct-Binder attacker",
            attacker_retained_after_300_calls: helper_side,
        },
        PlacementRow {
            placement: "server-side per-process threshold",
            attacker_retained_after_300_calls: server_side,
        },
    ]
}

#[derive(Debug, Serialize)]
struct MultiPathRow {
    paths: u8,
    classify: bool,
    attacker_score: u64,
}

/// Ablation 5: multi-path smear vs path-classified scoring (§VI).
fn multipath_comparison() -> Vec<MultiPathRow> {
    let mut rows = Vec::new();
    for (paths, classify) in [(1u8, false), (4, false), (4, true)] {
        let mut system = System::boot_with(SystemConfig {
            seed: 31,
            jgr_capacity: Some(3_200),
            ..SystemConfig::default()
        });
        let defender = JgreDefender::install(
            &mut system,
            DefenderConfig {
                record_threshold: 250,
                trigger_threshold: 750,
                normal_level: 150,
                classify_paths: classify,
                ..DefenderConfig::default()
            },
        )
        .expect("bench defender config is valid");
        let spec = AospSpec::android_6_0_1();
        let vector = AttackVector::service_vectors(&spec)
            .into_iter()
            .find(|v| v.service == "mount")
            .expect("mount is vulnerable");
        let mal = system.install_app("com.evil", vector.permissions.clone());
        let actors = vec![Actor {
            uid: mal,
            kind: ActorKind::MultiPathAttacker { vector, paths },
        }];
        for _ in 0..10_000 {
            run_interleaved(
                &mut system,
                actors.clone(),
                SimDuration::from_millis(500),
                31,
                true,
            );
            if !defender.monitor().alarmed_pids().is_empty() {
                break;
            }
        }
        let victim = system.system_server_pid();
        let report = defender
            .score_only(&system, victim, SimDuration::from_micros(1_800))
            .expect("alarm implies recording");
        rows.push(MultiPathRow {
            paths,
            classify,
            attacker_score: report.scores.first().map(|s| s.score).unwrap_or(0),
        });
    }
    rows
}

fn generate_artifacts() {
    if !artifacts_enabled() {
        return;
    }
    let thresholds = threshold_sensitivity();
    let mut text = String::from("Ablation — alarm threshold sensitivity\n");
    for r in &thresholds {
        text.push_str(&format!(
            "record {:>5} / trigger {:>5}: detected after {:>5} calls\n",
            r.record_threshold, r.trigger_threshold, r.detected_at_calls
        ));
    }
    write_artifact("ablation_thresholds", &thresholds, &text);

    let deltas = delta_sensitivity();
    let mut text = String::from("Ablation — Δ sensitivity (attacker vs benign score)\n");
    for r in &deltas {
        text.push_str(&format!(
            "Δ={:>5}µs: attacker {:>6}, benign {:>6}\n",
            r.delta_us, r.attacker_score, r.benign_score
        ));
    }
    write_artifact("ablation_delta", &deltas, &text);
    for r in &deltas {
        assert!(
            r.attacker_score > r.benign_score,
            "Δ={} failed to separate",
            r.delta_us
        );
    }

    let placement = placement_comparison();
    let mut text = String::from("Ablation — protection placement under direct-Binder attack\n");
    for r in &placement {
        text.push_str(&format!(
            "{}: attacker retained {}\n",
            r.placement, r.attacker_retained_after_300_calls
        ));
    }
    write_artifact("ablation_placement", &placement, &text);
    assert!(placement[0].attacker_retained_after_300_calls >= 300);
    assert!(placement[1].attacker_retained_after_300_calls <= 1);

    let multipath = multipath_comparison();
    let mut text = String::from(
        "Ablation — multi-path evasion vs path classification (§VI)
",
    );
    for r in &multipath {
        text.push_str(&format!(
            "paths={} classify={}: attacker score {}
",
            r.paths, r.classify, r.attacker_score
        ));
    }
    write_artifact("ablation_multipath", &multipath, &text);
    assert!(
        multipath[1].attacker_score < multipath[0].attacker_score,
        "path rotation must dilute the single-bucket score"
    );
    assert!(
        multipath[2].attacker_score > multipath[1].attacker_score,
        "classification must restore concentration"
    );
}

/// Ablation 1's tree arm: Algorithm 1 with §V-D.2's segment tree as the
/// histogram, paired like `naive_scores` (a moving lower bound over the
/// time-ordered calls). Only the total is returned; the property tests
/// pin the scores of all three structures to each other.
fn segment_tree_total(ipc: &IpcByUid, jgr: &[SimTime], p: ScoreParams) -> u64 {
    let bin_us = p.bin.as_micros();
    let bins = (p.window.as_micros() / bin_us) as usize + 2;
    let delta_bins = (p.delta.as_micros() / bin_us) as usize;
    let mut tree = SegmentTree::new(bins);
    let mut total = 0;
    for calls in ipc.values().flat_map(|types| types.values()) {
        tree.clear();
        let mut start = 0;
        for &add in jgr {
            let floor = add.as_micros().saturating_sub(p.window.as_micros());
            while start < calls.len() && calls[start].as_micros() < floor {
                start += 1;
            }
            for &call in calls[start..].iter().take_while(|&&c| c <= add) {
                let lo = ((add - call).as_micros() / bin_us) as usize;
                tree.range_add(lo, lo + delta_bins, 1);
            }
        }
        total += tree.global_max();
    }
    total
}

fn bench_histograms(c: &mut Criterion) {
    let (ipc, jgr) = fixture(8_000);
    let mut group = c.benchmark_group("algorithm1_histogram");
    group.sample_size(20);
    for bin_us in [25u64, 50, 100] {
        for delta_us in [79u64, 1_800, 3_583] {
            let params = ScoreParams {
                delta: SimDuration::from_micros(delta_us),
                bin: SimDuration::from_micros(bin_us),
                ..ScoreParams::default()
            };
            let at = format!("bin{bin_us}us_delta{delta_us}us");
            group.bench_with_input(BenchmarkId::new("deployed", &at), &params, |b, p| {
                b.iter(|| segment_tree_scores(std::hint::black_box(&ipc), &jgr, *p));
            });
            group.bench_with_input(BenchmarkId::new("segment_tree", &at), &params, |b, p| {
                b.iter(|| segment_tree_total(std::hint::black_box(&ipc), &jgr, *p));
            });
            group.bench_with_input(BenchmarkId::new("naive", &at), &params, |b, p| {
                b.iter(|| naive_scores(std::hint::black_box(&ipc), &jgr, *p));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_histograms);

fn main() {
    generate_artifacts();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
