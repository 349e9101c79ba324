//! Crash-consistency costs: checkpoint writes and replay-from-checkpoint.
//!
//! The artifact pass runs the `defender-crash` column of the chaos matrix
//! and tabulates the recovery bill — crashes, restarts, records replayed,
//! and the virtual recovery delay (supervisor backoff + replay) — the
//! numbers the EXPERIMENTS.md recovery table quotes. The timed pass
//! prints the two real-time kernels of the durable defender on stdout:
//! writing one checkpoint of a loaded monitor, and a full resume
//! (reopen + restore + replay) whose replay is bounded by the checkpoint
//! interval.

use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;

use jgre_bench::{artifacts_enabled, min_time_ms, write_artifact};
use jgre_core::{experiments, ExperimentScale};
use jgre_defense::{DefenderConfig, DurableConfig, JgreDefender, MemoryStore};
use jgre_framework::{CallOptions, System, SystemConfig};
use jgre_sim::{FaultKind, FaultPlan};

fn generate_artifacts() {
    if !artifacts_enabled() {
        return;
    }
    let m = experiments::chaos_matrix(
        ExperimentScale::quick().with_seed(0),
        Some(FaultKind::DefenderCrash),
    );
    let cells: Vec<_> = m
        .cells
        .iter()
        .filter(|c| c.fault == "defender-crash")
        .cloned()
        .collect();
    let mut rendered = String::from(
        "Recovery cost — defender-crash cells, quick scale, seed 0\n\
         (recovery delay = supervisor backoff + journal replay, virtual µs)\n",
    );
    let _ = writeln!(
        rendered,
        "{:<42} {:<9} {:>7} {:>8} {:>8} {:>12} {:>4}",
        "attack", "intensity", "crashes", "restarts", "replayed", "delay_us", "det"
    );
    for c in &cells {
        let _ = writeln!(
            rendered,
            "{:<42} {:<9} {:>7} {:>8} {:>8} {:>12} {:>4}",
            c.attack,
            c.intensity,
            c.defender_crashes,
            c.defender_restarts,
            c.replayed_records,
            c.recovery_delay_us,
            if c.detected { "yes" } else { "no" },
        );
    }
    write_artifact("recovery", &cells, &rendered);
    assert!(
        cells.iter().all(|c| c.violations.is_empty()),
        "recovery invariants must hold:\n{rendered}"
    );
}

/// A defended system whose journal and watch tables carry real load:
/// returns the system, the defender, its config, and a handle on the
/// shared store (for freezing its bytes).
fn loaded_defender() -> (System, JgreDefender, DefenderConfig, Rc<MemoryStore>) {
    let scale = ExperimentScale::quick();
    let mut system = System::boot_with(SystemConfig {
        seed: 5,
        jgr_capacity: Some(scale.jgr_capacity),
        faults: FaultPlan::none(),
        ..SystemConfig::default()
    });
    let config = scale.defender_config();
    let store = Rc::new(MemoryStore::new());
    let defender = JgreDefender::install_durable(
        &mut system,
        config.clone(),
        DurableConfig::default(),
        store.clone(),
    )
    .unwrap();
    let mal = system.install_app("com.evil", []);
    // Enough traffic to fill the watch tables, not enough to alarm.
    for _ in 0..200u32 {
        system
            .call_service(
                mal,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .expect("clipboard registered");
        defender.poll(&mut system);
    }
    (system, defender, config, store)
}

/// Resumes a defender from the bytes a crashed process left behind.
fn resume(
    system: &mut System,
    config: &DefenderConfig,
    journal: &[u8],
    checkpoint: Option<&[u8]>,
) -> JgreDefender {
    let store = MemoryStore::new();
    store.set_journal_bytes(journal.to_vec());
    store.set_checkpoint_bytes(checkpoint.map(<[u8]>::to_vec));
    system.clear_jgr_observers();
    JgreDefender::resume(
        system,
        config.clone(),
        DurableConfig::default(),
        Rc::new(store),
    )
    .unwrap()
}

/// Samples per kernel; each sample times a batch and reports its mean.
const SAMPLES: usize = 20;
const WRITES_PER_SAMPLE: usize = 1_000;
const RESUMES_PER_SAMPLE: usize = 100;

fn time_kernels() {
    let (system, defender, _, _) = loaded_defender();
    let write_us = min_time_ms(SAMPLES, || {
        for _ in 0..WRITES_PER_SAMPLE {
            defender.checkpoint_now(black_box(&system));
        }
    }) * 1e3
        / WRITES_PER_SAMPLE as f64;
    drop((system, defender));

    // Freeze the store as a crashed process would leave it, then time a
    // full resume from those bytes.
    let (mut system, defender, config, store) = loaded_defender();
    drop(defender);
    let journal = store.journal_bytes();
    let checkpoint = store.checkpoint_bytes();
    let resumed = resume(&mut system, &config, &journal, checkpoint.as_deref());
    assert!(
        resumed.stats().replayed_records <= DurableConfig::default().checkpoint_interval,
        "replay must be bounded by the checkpoint interval"
    );
    drop(resumed);
    let resume_us = min_time_ms(SAMPLES, || {
        for _ in 0..RESUMES_PER_SAMPLE {
            black_box(resume(
                &mut system,
                &config,
                &journal,
                checkpoint.as_deref(),
            ));
        }
    }) * 1e3
        / RESUMES_PER_SAMPLE as f64;

    println!(
        "recovery kernels (wall clock; best of {SAMPLES} batches, each batch's mean)\n\
         checkpoint write:  {write_us:>8.2} µs  ({WRITES_PER_SAMPLE} writes per batch)\n\
         resume + replay:   {resume_us:>8.2} µs  ({RESUMES_PER_SAMPLE} resumes per batch)"
    );
}

fn main() {
    generate_artifacts();
    time_kernels();
}
