//! The robustness matrix: seeded fault injection against the hardened
//! defender.
//!
//! Each cell of the matrix drives one attack vector against a defended
//! device while exactly one fault channel is active at one intensity
//! (plus a fault-free baseline per attack), then checks the recovery
//! invariants:
//!
//! * a detection pass never kills more than `max_kills` apps;
//! * the benign bystander is never killed at or below moderate intensity;
//! * the fault-free baseline detects, top-ranks the attacker, and drains
//!   the table with full confidence;
//! * at or below moderate intensity, detection still converges and the
//!   attacker still dies;
//! * a pass that leaves the table saturated must say so
//!   ([`DetectionOutcome::Degraded`]) — silent failure is itself a
//!   violation;
//! * the defender process itself is mortal: every cell runs the
//!   durable defender (journal + checkpoint + supervised restarts),
//!   and the `defender-crash` channel kills it mid-pass; at or
//!   below moderate intensity it must recover and still converge, and
//!   the supervisor must never exhaust its restart budget.
//!
//! Everything is a pure function of `(seed, matrix shape)`: two runs with
//! the same seed produce byte-identical JSON.

use std::fmt::Write as _;
use std::rc::Rc;

use jgre_attack::AttackVector;
use jgre_corpus::spec::AospSpec;
use jgre_defense::{DetectionOutcome, DurableConfig, JgreDefender, MemoryStore, ScoringKind};
use jgre_framework::{CallOptions, System, SystemConfig};
use jgre_sim::{FaultIntensity, FaultKind, FaultPlan, SimDuration};
use serde::Serialize;

use crate::ExperimentScale;

/// The attacks the matrix exercises: one fast interface (single-window
/// detection) and one slow Delay interface (forces window escalation).
pub const CHAOS_ATTACKS: [(&str, &str); 2] = [
    ("clipboard", "addPrimaryClipChangedListener"),
    ("midi", "registerDeviceServer"),
];

/// One attack × fault × intensity run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosCell {
    /// `service.method` attacked.
    pub attack: String,
    /// Fault channel name (`"none"` for the baseline).
    pub fault: String,
    /// Intensity name (`"off"` for the baseline).
    pub intensity: String,
    /// Whether any detection pass completed within the call budget.
    pub detected: bool,
    /// Whether the first detection reported reduced confidence.
    pub degraded: bool,
    /// Degradation causes of the first detection, rendered.
    pub causes: Vec<String>,
    /// Which ranking the first detection used.
    pub scoring: Option<ScoringKind>,
    /// IPC-log coverage the first detection observed.
    pub coverage: Option<f64>,
    /// Correlation rounds of the first detection.
    pub rounds: usize,
    /// Whether the attacker was killed by any pass.
    pub attacker_killed: bool,
    /// Whether the benign bystander was killed by any pass.
    pub benign_killed: bool,
    /// Largest kill list of any single pass.
    pub max_kills_per_pass: usize,
    /// Whether the victim's table ended below the normal level.
    pub table_drained: bool,
    /// Victim table size after the last pass.
    pub victim_jgr_after: Option<usize>,
    /// First detection's modeled response delay, µs.
    pub response_delay_us: Option<u64>,
    /// Detection passes completed.
    pub passes: usize,
    /// Attacker calls issued.
    pub calls_issued: u64,
    /// Fault events the injector actually fired.
    pub fault_events: u64,
    /// Times the defender process crashed (the `defender-crash` channel).
    pub defender_crashes: u64,
    /// Times the supervisor restarted it.
    pub defender_restarts: u64,
    /// Whether the supervisor exhausted its restart budget.
    pub defender_gave_up: bool,
    /// Journal records replayed across all recoveries.
    pub replayed_records: u64,
    /// Virtual time spent crashed (backoff + replay), µs.
    pub recovery_delay_us: u64,
    /// Recovery invariants this cell broke (empty = healthy).
    pub violations: Vec<String>,
}

/// The full fault matrix with its seed and verdict.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosMatrix {
    /// Seed every cell derives its RNG streams from.
    pub seed: u64,
    /// Table capacity the cells ran at.
    pub jgr_capacity: usize,
    /// Kill budget per detection pass.
    pub max_kills: usize,
    /// All cells, in deterministic (attack, fault, intensity) order.
    pub cells: Vec<ChaosCell>,
    /// Total invariant violations across cells.
    pub violations: usize,
}

impl ChaosMatrix {
    /// Plain-text summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Chaos matrix — seed {}, {} cells, {} invariant violation(s)\n",
            self.seed,
            self.cells.len(),
            self.violations
        );
        let _ = writeln!(
            out,
            "{:<42} {:<14} {:<9} {:>4} {:>5} {:>6}  outcome",
            "attack", "fault", "intensity", "det", "kill", "cover"
        );
        for c in &self.cells {
            let mut outcome = if !c.violations.is_empty() {
                format!("VIOLATION: {}", c.violations.join("; "))
            } else if c.degraded {
                format!("degraded ({})", c.causes.join("; "))
            } else if c.detected {
                "full".to_owned()
            } else {
                "no detection".to_owned()
            };
            if c.defender_crashes > 0 {
                let _ = write!(
                    outcome,
                    " [defender crashed ×{}, {}]",
                    c.defender_crashes,
                    if c.defender_gave_up {
                        "gave up".to_owned()
                    } else {
                        format!("recovered in {} µs", c.recovery_delay_us)
                    }
                );
            }
            let _ = writeln!(
                out,
                "{:<42} {:<14} {:<9} {:>4} {:>5} {:>6}  {}",
                c.attack,
                c.fault,
                c.intensity,
                if c.detected { "yes" } else { "no" },
                if c.attacker_killed { "mal" } else { "-" },
                c.coverage
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".to_owned()),
                outcome
            );
        }
        out
    }
}

/// Runs the full matrix: for each attack, a fault-free baseline plus every
/// `FaultKind` at every active intensity.
pub fn chaos_matrix(scale: ExperimentScale, only_fault: Option<FaultKind>) -> ChaosMatrix {
    let spec = AospSpec::android_6_0_1();
    let mut cells = Vec::new();
    for (service, method) in CHAOS_ATTACKS {
        let vector = AttackVector::service_vectors(&spec)
            .into_iter()
            .find(|v| v.service == service && v.method == method)
            .unwrap_or_else(|| panic!("{service}.{method} is a known vector"));
        cells.push(run_cell(scale, &vector, None, FaultIntensity::Off));
        for kind in FaultKind::ALL {
            if only_fault.is_some_and(|f| f != kind) {
                continue;
            }
            for intensity in FaultIntensity::ACTIVE {
                cells.push(run_cell(scale, &vector, Some(kind), intensity));
            }
        }
    }
    let violations = cells.iter().map(|c| c.violations.len()).sum();
    ChaosMatrix {
        seed: scale.seed,
        jgr_capacity: scale.jgr_capacity,
        max_kills: scale.defender_config().max_kills,
        cells,
        violations,
    }
}

/// The cell identifiers (`attack/fault/intensity`) the matrix would run,
/// in run order, without running anything (`jgre chaos --list-cells`).
pub fn chaos_cell_ids(only_fault: Option<FaultKind>) -> Vec<String> {
    let mut ids = Vec::new();
    for (service, method) in CHAOS_ATTACKS {
        ids.push(format!("{service}.{method}/none/off"));
        for kind in FaultKind::ALL {
            if only_fault.is_some_and(|f| f != kind) {
                continue;
            }
            for intensity in FaultIntensity::ACTIVE {
                ids.push(format!(
                    "{service}.{method}/{}/{}",
                    kind.name(),
                    intensity.name()
                ));
            }
        }
    }
    ids
}

/// The defender configuration the chaos cells run with: the scale's
/// thresholds plus alarm hysteresis, so an unkillable attacker cannot
/// drive a kill storm while the cell keeps calling.
fn chaos_defender_config(scale: ExperimentScale) -> jgre_defense::DefenderConfig {
    jgre_defense::DefenderConfig {
        cooldown: SimDuration::from_millis(100),
        ..scale.defender_config()
    }
}

fn run_cell(
    scale: ExperimentScale,
    vector: &AttackVector,
    kind: Option<FaultKind>,
    intensity: FaultIntensity,
) -> ChaosCell {
    let plan = match kind {
        Some(kind) => FaultPlan::single(kind, intensity),
        None => FaultPlan::none(),
    };
    // Decorrelate cells without consulting wall-clock or global state:
    // the cell's seed folds in its matrix coordinates.
    let cell_seed = scale
        .seed
        .wrapping_add(kind.map_or(0, |k| (k as u64 + 1) << 8))
        .wrapping_add(intensity as u64 + 1)
        .wrapping_add(vector.service.len() as u64) // differs per attack
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut system = System::boot_with(SystemConfig {
        faults: plan,
        ..scale.with_seed(cell_seed).system_config()
    });
    // Every cell runs the durable defender (journal + checkpoint +
    // supervised restarts). With the crash channel quiet this is
    // byte-identical in timing and RNG consumption to the plain one; with
    // it active, the cell gains the crash dimension.
    let defender = JgreDefender::install_durable(
        &mut system,
        chaos_defender_config(scale),
        DurableConfig::default(),
        Rc::new(MemoryStore::new()),
    )
    .expect("chaos defender config is valid");
    let mal = system.install_app("com.chaos.attacker", vector.permissions.iter().copied());
    let benign = system.install_app("com.chaos.benign", []);

    let budget = scale.jgr_capacity as u64 * 4;
    let mut calls_issued = 0u64;
    let mut outcomes: Vec<DetectionOutcome> = Vec::new();
    let mut victim_died = false;
    for i in 0..budget {
        match system.call_service(mal, &vector.service, &vector.method, vector.call_options()) {
            Ok(o) => {
                calls_issued += 1;
                if o.host_aborted {
                    victim_died = true;
                    break;
                }
            }
            Err(_) => {
                victim_died = true;
                break;
            }
        }
        // An innocent bystander shares the device: a no-JGR method, one
        // call per three attacker calls.
        if i % 3 == 0 {
            let _ = system.call_service(benign, "clipboard", "getState", CallOptions::default());
        }
        if let Some(d) = defender.poll(&mut system) {
            outcomes.push(d);
            // One extra pass budget: keep calling briefly after the first
            // detection only when the kill failed, to observe hysteresis;
            // otherwise the cell's question is answered.
            if outcomes.len() >= 3 || outcomes.last().is_some_and(|d| !d.killed.is_empty()) {
                break;
            }
        }
        // A crash can swallow the very pass that killed the attacker
        // (the outcome dies with the process); the ground truth is the
        // process table.
        if system.pid_of(mal).is_none() {
            break;
        }
    }

    let recovery = defender.stats();
    let first = outcomes.first();
    let attacker_killed = outcomes.iter().any(|d| d.killed.contains(&mal))
        || (calls_issued > 0 && system.pid_of(mal).is_none());
    let benign_killed = outcomes.iter().any(|d| d.killed.contains(&benign));
    let max_kills_per_pass = outcomes.iter().map(|d| d.killed.len()).max().unwrap_or(0);
    let victim_jgr_after = outcomes.last().and_then(|d| d.victim_jgr_after);
    let normal_level = scale.normal_level;
    let table_drained = victim_jgr_after.is_some_and(|n| n < normal_level);
    let degraded = first.is_some_and(|d| d.is_degraded());

    let mut violations = Vec::new();
    let config = chaos_defender_config(scale);
    if victim_died {
        violations.push("victim exhausted before detection".to_owned());
    }
    if max_kills_per_pass > config.max_kills {
        violations.push(format!(
            "a pass killed {max_kills_per_pass} apps, budget {}",
            config.max_kills
        ));
    }
    let at_most_moderate = intensity <= FaultIntensity::Moderate;
    if benign_killed && at_most_moderate {
        violations.push("benign app killed at ≤ moderate intensity".to_owned());
    }
    if recovery.gave_up && at_most_moderate {
        violations.push("supervisor gave up at ≤ moderate intensity".to_owned());
    }
    if kind == Some(FaultKind::DefenderCrash) && intensity != FaultIntensity::Off {
        // The crash dimension must be exercised, not just configured.
        if recovery.crashes == 0 {
            violations.push("crash channel active but the defender never crashed".to_owned());
        }
        if recovery.crashes > 0 && recovery.truncated_bytes == 0 {
            violations.push("crash left no torn tail for reopen to truncate".to_owned());
        }
    }
    if at_most_moderate {
        if first.is_none() {
            violations.push("no detection within the call budget".to_owned());
        }
        if !attacker_killed {
            violations.push("attacker survived at ≤ moderate intensity".to_owned());
        }
        if !table_drained && !outcomes.iter().any(|d| d.is_degraded()) {
            violations.push("table not drained and no pass admitted it".to_owned());
        }
    }
    if kind.is_none() {
        // Baseline must reproduce the paper's shape with full confidence.
        if degraded {
            violations.push("fault-free baseline reported degraded".to_owned());
        }
        if first.is_some_and(|d| d.scores.first().map(|s| s.uid) != Some(mal)) {
            violations.push("fault-free baseline did not top-rank the attacker".to_owned());
        }
        if !table_drained {
            violations.push("fault-free baseline did not drain the table".to_owned());
        }
    }

    ChaosCell {
        attack: format!("{}.{}", vector.service, vector.method),
        fault: kind.map_or("none", FaultKind::name).to_owned(),
        intensity: intensity.name().to_owned(),
        detected: first.is_some(),
        degraded,
        causes: first
            .map(|d| d.causes().iter().map(|c| c.to_string()).collect())
            .unwrap_or_default(),
        scoring: first.map(|d| d.scoring),
        coverage: first.map(|d| d.coverage),
        rounds: first.map(|d| d.rounds).unwrap_or(0),
        attacker_killed,
        benign_killed,
        max_kills_per_pass,
        table_drained,
        victim_jgr_after,
        response_delay_us: first.map(|d| d.response_delay.as_micros()),
        passes: outcomes.len(),
        calls_issued,
        fault_events: system.faults().stats().total(),
        defender_crashes: recovery.crashes,
        defender_restarts: recovery.restarts,
        defender_gave_up: recovery.gave_up,
        replayed_records: recovery.replayed_records,
        recovery_delay_us: recovery.recovery_delay_us,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cells_reproduce_the_paper_shape() {
        let m = chaos_matrix(ExperimentScale::quick(), Some(FaultKind::KillFail));
        let baselines: Vec<&ChaosCell> = m.cells.iter().filter(|c| c.fault == "none").collect();
        assert_eq!(baselines.len(), 2);
        for c in baselines {
            assert!(c.detected && c.attacker_killed && c.table_drained, "{c:?}");
            assert!(!c.degraded && !c.benign_killed, "{c:?}");
            assert_eq!(c.scoring, Some(ScoringKind::SegmentTree));
        }
    }

    #[test]
    fn moderate_faults_never_violate_invariants() {
        let m = chaos_matrix(ExperimentScale::quick(), None);
        let broken: Vec<&ChaosCell> = m
            .cells
            .iter()
            .filter(|c| !c.violations.is_empty())
            .collect();
        assert!(broken.is_empty(), "violated cells: {broken:#?}");
        // The headline degradations actually happen somewhere in the
        // matrix — the ladder is exercised, not just defined.
        assert!(
            m.cells
                .iter()
                .any(|c| c.scoring == Some(ScoringKind::CallCount)),
            "no cell fell back to call-count scoring"
        );
        assert!(
            m.cells.iter().any(|c| c.degraded),
            "no cell reported degradation"
        );
    }

    #[test]
    fn defender_crash_cells_crash_and_recover() {
        let m = chaos_matrix(ExperimentScale::quick(), Some(FaultKind::DefenderCrash));
        let crashed: Vec<&ChaosCell> = m
            .cells
            .iter()
            .filter(|c| c.fault == "defender-crash")
            .collect();
        assert_eq!(crashed.len(), 6, "2 attacks × 3 intensities");
        for c in &crashed {
            assert!(c.defender_crashes > 0, "channel must fire: {c:?}");
            assert!(c.violations.is_empty(), "{c:?}");
        }
        for c in crashed.iter().filter(|c| c.intensity != "severe") {
            assert!(c.attacker_killed, "{c:?}");
            assert!(!c.defender_gave_up, "{c:?}");
            assert!(c.defender_restarts > 0, "{c:?}");
            assert!(c.recovery_delay_us > 0, "recovery is not free: {c:?}");
        }
    }

    #[test]
    fn cell_ids_match_the_matrix_without_running_it() {
        let ids = chaos_cell_ids(None);
        let m = chaos_matrix(ExperimentScale::quick(), Some(FaultKind::KillFail));
        // Full listing: 2 attacks × (1 baseline + 10 kinds × 3 intensities).
        assert_eq!(ids.len(), 62);
        assert!(ids.contains(&"clipboard.addPrimaryClipChangedListener/none/off".to_owned()));
        assert!(ids.contains(&"midi.registerDeviceServer/defender-crash/severe".to_owned()));
        // Filtered listing lines up 1:1 with a filtered run.
        let filtered = chaos_cell_ids(Some(FaultKind::KillFail));
        assert_eq!(filtered.len(), m.cells.len());
        for (id, cell) in filtered.iter().zip(&m.cells) {
            assert_eq!(
                id,
                &format!("{}/{}/{}", cell.attack, cell.fault, cell.intensity)
            );
        }
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = chaos_matrix(ExperimentScale::quick(), Some(FaultKind::IpcDrop));
        let b = chaos_matrix(ExperimentScale::quick(), Some(FaultKind::IpcDrop));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let c = chaos_matrix(
            ExperimentScale::quick().with_seed(99),
            Some(FaultKind::IpcDrop),
        );
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap(),
            "a different seed must actually change the run"
        );
    }
}
