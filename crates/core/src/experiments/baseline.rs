//! Figure 4 — the benign baseline that justifies the alarm threshold.

use jgre_attack::{BenignSample, BenignWorkload, BenignWorkloadConfig};
use jgre_framework::System;
use serde::Serialize;

use crate::ExperimentScale;

/// Figure 4: `system_server` JGR size and process count under the
/// top-apps benign sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig4 {
    /// Sampled series.
    pub samples: Vec<BenignSample>,
    /// Smallest observed JGR table size.
    pub jgr_min: usize,
    /// Largest observed JGR table size.
    pub jgr_max: usize,
    /// Smallest observed process count.
    pub proc_min: usize,
    /// Largest observed process count.
    pub proc_max: usize,
    /// Apps exercised.
    pub apps: usize,
}

impl Fig4 {
    /// Plain-text summary.
    pub fn render(&self) -> String {
        format!(
            "Figure 4 — benign baseline over the top {} apps\n\
             system_server JGR: {}..{} (paper: ~1000..3000, vs cap 51200)\n\
             running processes: {}..{} (paper: 382..421)\n\
             samples: {}\n",
            self.apps,
            self.jgr_min,
            self.jgr_max,
            self.proc_min,
            self.proc_max,
            self.samples.len(),
        )
    }
}

/// Regenerates Figure 4 with the paper's protocol (scaled by
/// `apps` / `session_secs` for quick runs).
pub fn fig4(scale: ExperimentScale, apps: usize, session_secs: u64) -> Fig4 {
    let mut system = System::boot_with(scale.system_config());
    // Long runs would grow the driver log unboundedly; the baseline does
    // not need it.
    system.driver_mut().set_log_enabled(false);
    let mut workload = BenignWorkload::new(
        BenignWorkloadConfig {
            apps,
            apps_per_round: 100.min(apps),
            session: jgre_sim::SimDuration::from_secs(session_secs),
            calls_per_session: 40,
            sample_every: jgre_sim::SimDuration::from_secs(60),
        },
        scale.seed,
    );
    let samples = workload.run(&mut system);
    assert_eq!(system.soft_reboots(), 0, "benign load must never reboot");
    let jgr_min = samples
        .iter()
        .map(|s| s.system_server_jgr)
        .min()
        .unwrap_or(0);
    let jgr_max = samples
        .iter()
        .map(|s| s.system_server_jgr)
        .max()
        .unwrap_or(0);
    let proc_min = samples.iter().map(|s| s.processes).min().unwrap_or(0);
    let proc_max = samples.iter().map(|s| s.processes).max().unwrap_or(0);
    Fig4 {
        samples,
        jgr_min,
        jgr_max,
        proc_min,
        proc_max,
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_framework::STOCK_PROCESS_COUNT;

    #[test]
    fn baseline_band_matches_observation_1() {
        let f = fig4(ExperimentScale::quick(), 50, 20);
        // Small and stable relative to the cap; processes within the LMK
        // envelope.
        assert!(f.jgr_max < ExperimentScale::quick().jgr_capacity / 2);
        assert!(f.proc_min >= STOCK_PROCESS_COUNT);
        assert!(f.proc_max <= STOCK_PROCESS_COUNT + 39);
        assert!(f.render().contains("benign baseline"));
    }
}
