//! Crash-consistency costs: checkpoint writes and replay-from-checkpoint.
//!
//! The artifact pass runs the `defender-crash` column of the chaos matrix
//! and tabulates the recovery bill — crashes, restarts, records replayed,
//! and the virtual recovery delay (supervisor backoff + replay) — the
//! numbers the EXPERIMENTS.md recovery table quotes. The timed pass
//! measures the two real-time kernels of the durable defender:
//! writing one checkpoint of a loaded monitor, and a full resume
//! (reopen + restore + replay) whose replay is bounded by the checkpoint
//! interval.

use std::fmt::Write as _;
use std::rc::Rc;

use criterion::{criterion_group, Criterion};
use jgre_bench::{artifacts_enabled, write_artifact};
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

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    group.sample_size(20);

    let (system, defender, _, _) = loaded_defender();
    group.bench_function("checkpoint_write", |b| {
        b.iter(|| defender.checkpoint_now(&system));
    });
    drop((system, defender));

    // Freeze the store as a crashed process would leave it, then time a
    // full resume from those bytes.
    let (mut system, defender, config, store) = loaded_defender();
    drop(defender);
    let interval = DurableConfig::default().checkpoint_interval;
    let journal_bytes = store.journal_bytes();
    let checkpoint_bytes = store.checkpoint_bytes();
    group.bench_function("resume_replay_from_checkpoint", |b| {
        b.iter(|| {
            let s = MemoryStore::new();
            s.set_journal_bytes(journal_bytes.clone());
            s.set_checkpoint_bytes(checkpoint_bytes.clone());
            system.clear_jgr_observers();
            let resumed = JgreDefender::resume(
                &mut system,
                config.clone(),
                DurableConfig::default(),
                Rc::new(s),
            )
            .unwrap();
            assert!(
                resumed.stats().replayed_records <= interval,
                "replay must be bounded by the checkpoint interval"
            );
        });
    });
    group.finish();
}

criterion_group!(benches, bench_recovery);

fn main() {
    generate_artifacts();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
