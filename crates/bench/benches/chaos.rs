//! Robustness: the seeded fault matrix as an artifact generator.
//!
//! The artifact pass re-runs the full matrix at quick scale (the same
//! shape `jgre chaos` ships) and asserts the recovery invariants; one
//! degraded detection (severe IPC-record loss → call-count fallback)
//! then runs on its own, with or without artifacts.

use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_core::{experiments, ExperimentScale};
use jgre_defense::{JgreDefender, ScoringKind};
use jgre_framework::{CallOptions, System, SystemConfig};
use jgre_sim::{FaultIntensity, FaultKind, FaultPlan};

fn generate_artifacts() {
    if !artifacts_enabled() {
        return;
    }
    let m = experiments::chaos_matrix(ExperimentScale::quick().with_seed(0), None);
    write_artifact("chaos_matrix", &m, &m.render());
    assert_eq!(
        m.violations,
        0,
        "recovery invariants must hold:\n{}",
        m.render()
    );
    assert_eq!(m.cells.len(), 62);
    assert!(
        m.cells
            .iter()
            .any(|c| c.scoring == Some(ScoringKind::CallCount)),
        "the matrix must exercise the call-count fallback"
    );
}

/// Severe IPC-record loss drops coverage below the scorer's floor, so
/// the defender detects the attacker on the call-count fallback.
fn severe_ipc_drop_scores_by_call_count() {
    let scale = ExperimentScale::quick();
    let mut system = System::boot_with(SystemConfig {
        seed: 5,
        jgr_capacity: Some(scale.jgr_capacity),
        faults: FaultPlan::single(FaultKind::IpcDrop, FaultIntensity::Severe),
        ..SystemConfig::default()
    });
    let defender = JgreDefender::install(&mut system, scale.defender_config())
        .expect("bench defender config is valid");
    let mal = system.install_app("com.evil", []);
    let decision = (0..10_000u32)
        .find_map(|_| {
            system
                .call_service(
                    mal,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .expect("clipboard registered");
            defender.poll(&mut system)
        })
        .expect("the attacker is detected within 10 000 calls");
    assert_eq!(decision.scoring, ScoringKind::CallCount);
}

fn main() {
    generate_artifacts();
    severe_ipc_drop_scores_by_call_count();
}
