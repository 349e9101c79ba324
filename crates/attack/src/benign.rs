//! The benign baseline workload of Observation 1 / Figure 4.
//!
//! The paper installs the top-300 free Play apps (100 at a time on the
//! 16 GB device), drives each with MonkeyRunner for two minutes, then
//! backgrounds it with HOME. Under that load `system_server`'s JGR table
//! stays between ~1000 and ~3000 entries and the process count between 382
//! and 421 — the stability that makes a fixed alarm threshold safe.

use jgre_corpus::spec::{JgrBehavior, Permission, ProtectionLevel};
use jgre_framework::{CallOptions, FrameworkError, System};
use jgre_sim::{SimDuration, SimRng, SimTime, Uid};
use serde::Serialize;

/// Configuration of the benign sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BenignWorkloadConfig {
    /// Apps to install and exercise (the paper: 300, in 3 rounds of 100).
    pub apps: usize,
    /// Apps per round (device storage limit).
    pub apps_per_round: usize,
    /// Foreground time per app.
    pub session: SimDuration,
    /// Helper/IPC calls per app session.
    pub calls_per_session: usize,
    /// Sample cadence.
    pub sample_every: SimDuration,
}

impl Default for BenignWorkloadConfig {
    fn default() -> Self {
        Self {
            apps: 300,
            apps_per_round: 100,
            session: SimDuration::from_secs(120),
            calls_per_session: 40,
            sample_every: SimDuration::from_secs(60),
        }
    }
}

/// One Figure 4 sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BenignSample {
    /// Virtual time.
    pub at: SimTime,
    /// `system_server` JGR table size (left Y axis).
    pub system_server_jgr: usize,
    /// Running process count (right Y axis).
    pub processes: usize,
}

/// Drives the benign sweep and collects the Figure 4 series.
#[derive(Debug)]
pub struct BenignWorkload {
    config: BenignWorkloadConfig,
    rng: SimRng,
}

impl BenignWorkload {
    /// Creates a workload with its own RNG stream.
    pub fn new(config: BenignWorkloadConfig, seed: u64) -> Self {
        Self {
            config,
            rng: SimRng::seed(seed ^ 0xBE9165),
        }
    }

    /// Runs the sweep on `system`, returning the sampled series.
    pub fn run(&mut self, system: &mut System) -> Vec<BenignSample> {
        let mut samples = Vec::new();
        let mut next_sample = system.now();
        // Benign apps request ordinary permissions.
        let benign_perms = [
            Permission::Internet,
            Permission::Vibrate,
            Permission::WakeLock,
            Permission::AccessNetworkState,
            Permission::ReadPhoneState,
            Permission::AccessFineLocation,
        ];
        // Collect candidate benign calls: innocent methods plus the
        // listener registrations every real app performs through helpers.
        let spec = system.spec().clone();
        let mut benign_calls: Vec<(String, String, Option<Permission>, bool)> = Vec::new();
        for svc in &spec.services {
            if svc.native {
                continue;
            }
            for m in &svc.methods {
                let helper = matches!(
                    m.protection,
                    jgre_corpus::spec::Protection::HelperThreshold { .. }
                );
                let usable = match m.jgr {
                    JgrBehavior::NoJgr | JgrBehavior::Transient | JgrBehavior::ReplaceSingle => {
                        true
                    }
                    // Real apps do register listeners — but only a handful,
                    // via the documented helper APIs.
                    JgrBehavior::RetainPerCall { .. } => helper,
                    JgrBehavior::ThreadCreateOnly => true,
                };
                let permission_ok = m
                    .permission
                    .is_none_or(|p| p.level() != ProtectionLevel::Signature);
                if usable && permission_ok {
                    benign_calls.push((svc.name.clone(), m.name.clone(), m.permission, helper));
                }
            }
        }

        let rounds = self.config.apps.div_ceil(self.config.apps_per_round);
        let mut app_no = 0usize;
        for round in 0..rounds {
            // Install this round's batch.
            let mut batch: Vec<Uid> = Vec::new();
            for _ in 0..self.config.apps_per_round.min(self.config.apps - app_no) {
                let uid = system.install_app(
                    format!("com.top.app{app_no:03}"),
                    benign_perms.iter().copied(),
                );
                batch.push(uid);
                app_no += 1;
            }
            for &uid in &batch {
                // Foreground session. App startup stirs the framework:
                // system components exchange binders among themselves,
                // creating a transient bulge in the JGR table that the
                // per-session GC returns — Figure 4's wobble.
                system.launch_app(uid).expect("app was installed");
                let capacity = system
                    .jgr_capacity(system.system_server_pid())
                    .expect("system_server is alive");
                let churn = self.rng.range(capacity / 340..capacity / 34);
                system.framework_activity(churn);
                let session_end = system.now() + self.config.session;
                let mut calls = 0;
                while system.now() < session_end && calls < self.config.calls_per_session {
                    let (svc, method, _perm, helper) = self
                        .rng
                        .choose(&benign_calls)
                        .expect("catalog is non-empty")
                        .clone();
                    let options = if helper {
                        CallOptions::benign()
                    } else {
                        CallOptions::default()
                    };
                    match system.call_service(uid, &svc, &method, options) {
                        Ok(_) => {}
                        Err(FrameworkError::PermissionDenied { .. })
                        | Err(FrameworkError::HelperLimitExceeded { .. }) => {}
                        Err(e) => panic!("benign call {svc}.{method} failed: {e}"),
                    }
                    calls += 1;
                    // User think time between interactions.
                    let think = self.rng.range(500..4_000u64);
                    system.clock().advance(SimDuration::from_millis(think));
                    while system.now() >= next_sample {
                        samples.push(sample(system));
                        next_sample += self.config.sample_every;
                    }
                }
                // HOME press: app goes to the background; an occasional GC
                // runs on system_server as the framework breathes.
                let ss = system.system_server_pid();
                system.gc_process(ss);
                while system.now() >= next_sample {
                    samples.push(sample(system));
                    next_sample += self.config.sample_every;
                }
            }
            // Between rounds the device is wiped of the batch (storage
            // limit): kill the batch's processes.
            if round + 1 < rounds {
                for &uid in &batch {
                    system.kill_app(uid);
                }
            }
        }
        samples.push(sample(system));
        samples
    }
}

fn sample(system: &System) -> BenignSample {
    BenignSample {
        at: system.now(),
        system_server_jgr: system.system_server_jgr_count(),
        processes: system.process_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_framework::STOCK_PROCESS_COUNT;

    #[test]
    fn baseline_stays_in_the_figure_4_band() {
        let mut system = System::boot(11);
        let mut workload = BenignWorkload::new(
            BenignWorkloadConfig {
                apps: 60,
                apps_per_round: 30,
                session: SimDuration::from_secs(30),
                calls_per_session: 25,
                sample_every: SimDuration::from_secs(30),
            },
            11,
        );
        let samples = workload.run(&mut system);
        assert!(samples.len() > 10);
        let max_jgr = samples.iter().map(|s| s.system_server_jgr).max().unwrap();
        let max_procs = samples.iter().map(|s| s.processes).max().unwrap();
        // Observation 1: small and stable — far below the 51200 cap.
        assert!(
            max_jgr < 5_000,
            "benign baseline must stay small, got {max_jgr}"
        );
        assert!(max_procs >= STOCK_PROCESS_COUNT);
        assert!(
            max_procs <= STOCK_PROCESS_COUNT + 39,
            "LMK must cap processes, got {max_procs}"
        );
        assert_eq!(system.soft_reboots(), 0);
    }
}
