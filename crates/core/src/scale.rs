//! Experiment scaling: paper-faithful vs CI-fast parameterisation.

use jgre_defense::DefenderConfig;
use jgre_framework::SystemConfig;
use jgre_sim::SimDuration;
use serde::Serialize;

/// Resource bounds for one experiment run.
///
/// The JGRE mechanism is threshold-driven, so every experiment scales
/// linearly in the table capacity: shrinking the cap (and the defense
/// thresholds with it) preserves who wins, the ordering of exhaustion
/// times, which protections hold, and which apps get killed — only the
/// absolute magnitudes shrink. `paper()` is used by the benches that
/// regenerate the published numbers; `quick()` keeps the test suite fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExperimentScale {
    /// JGR table capacity per runtime.
    pub jgr_capacity: usize,
    /// Defense record threshold.
    pub record_threshold: usize,
    /// Defense trigger threshold.
    pub trigger_threshold: usize,
    /// Defense recovery target.
    pub normal_level: usize,
    /// Standing framework-internal JGR entries in `system_server`
    /// (Figure 4's idle-device floor).
    pub stock_jgr: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's constants: 51200-entry tables, 4000/12000 thresholds,
    /// recovery to below 3000.
    pub fn paper() -> Self {
        Self {
            jgr_capacity: jgre_art::MAX_GLOBAL_REFS,
            record_threshold: jgre_defense::RECORD_THRESHOLD,
            trigger_threshold: jgre_defense::TRIGGER_THRESHOLD,
            normal_level: 3_000,
            stock_jgr: 1_200,
            seed: 2_017,
        }
    }

    /// 1/16th scale for fast runs: 3200-entry tables, 250/750 thresholds.
    pub fn quick() -> Self {
        Self {
            jgr_capacity: 3_200,
            record_threshold: 250,
            trigger_threshold: 750,
            normal_level: 190,
            stock_jgr: 75,
            seed: 2_017,
        }
    }

    /// A copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The framework configuration for this scale.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            seed: self.seed,
            jgr_capacity: (self.jgr_capacity != jgre_art::MAX_GLOBAL_REFS)
                .then_some(self.jgr_capacity),
            stock_jgr: self.stock_jgr,
            ..SystemConfig::default()
        }
    }

    /// The defender configuration for this scale.
    pub fn defender_config(&self) -> DefenderConfig {
        DefenderConfig {
            record_threshold: self.record_threshold,
            trigger_threshold: self.trigger_threshold,
            normal_level: self.normal_level,
            ..DefenderConfig::default()
        }
    }

    /// The paper's system-wide average Δ (1.8 ms).
    pub fn default_delta(&self) -> SimDuration {
        SimDuration::from_micros(1_800)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_uses_the_real_constants() {
        let s = ExperimentScale::paper();
        assert_eq!(s.jgr_capacity, 51_200);
        assert_eq!(s.record_threshold, 4_000);
        assert_eq!(s.trigger_threshold, 12_000);
        // At paper scale the framework runs with the default capacity.
        assert_eq!(s.system_config().jgr_capacity, None);
    }

    #[test]
    fn quick_scale_preserves_threshold_ordering() {
        let s = ExperimentScale::quick();
        assert!(s.record_threshold < s.trigger_threshold);
        assert!(s.trigger_threshold < s.jgr_capacity);
        assert!(s.normal_level < s.record_threshold);
        assert_eq!(s.system_config().jgr_capacity, Some(3_200));
        assert_eq!(s.defender_config().trigger_threshold, 750);
    }

    #[test]
    fn with_seed_only_changes_the_seed() {
        let a = ExperimentScale::quick();
        let b = a.with_seed(99);
        assert_eq!(b.seed, 99);
        assert_eq!(a.jgr_capacity, b.jgr_capacity);
    }
}
