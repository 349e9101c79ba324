//! The strawman the paper argues against (§V-A): *"Note we cannot
//! identify malicious apps by simply finding the highest number of IPC
//! calls since IPC calls may not trigger the creation of new JGR
//! entries."*
//!
//! [`CallCountDefense`] is that strawman, implemented faithfully: same
//! monitor, same alarm thresholds, same kill mechanism — but it ranks
//! apps by raw IPC call volume toward the victim instead of by
//! Algorithm 1's correlation score. The comparison tests show where it
//! goes wrong: a chatty-but-innocent app out-calls a patient attacker
//! and gets killed in its place.

use std::rc::Rc;

use jgre_defense::{DefenseError, JgrMonitor};
use jgre_framework::System;
use jgre_sim::{Pid, SimDuration, SimTime, Uid};
use serde::Serialize;

/// Outcome of one call-count detection pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CallCountDetection {
    /// The alarmed process.
    pub victim: Pid,
    /// Per-app raw call counts toward the victim, highest first.
    pub call_counts: Vec<(Uid, u64)>,
    /// Apps killed, in order.
    pub killed: Vec<Uid>,
}

/// The naive volume-based defense.
#[derive(Debug)]
pub struct CallCountDefense {
    monitor: Rc<JgrMonitor>,
    normal_level: usize,
    max_kills: usize,
}

impl CallCountDefense {
    /// Installs the strawman: same thresholds and monitor wiring as the
    /// real defender.
    ///
    /// # Errors
    ///
    /// [`DefenseError::InvalidThresholds`] unless
    /// `record_threshold < trigger_threshold`.
    pub fn install(
        system: &mut System,
        record_threshold: usize,
        trigger_threshold: usize,
        normal_level: usize,
    ) -> Result<Self, DefenseError> {
        let monitor = JgrMonitor::install(system, record_threshold, trigger_threshold)?;
        Ok(Self {
            monitor,
            normal_level,
            max_kills: 8,
        })
    }

    /// The shared monitor.
    pub fn monitor(&self) -> &Rc<JgrMonitor> {
        &self.monitor
    }

    /// Polls for alarms; on one, kills apps by descending raw call count
    /// until the victim's table is back to normal.
    pub fn poll(&self, system: &mut System) -> Option<CallCountDetection> {
        let victim = self.monitor.alarmed_pids().into_iter().next()?;
        let detection = self
            .monitor
            .recording_since(victim)
            .map(|since| self.respond(system, victim, since));
        self.monitor.reset(victim);
        detection
    }

    /// Ranks apps by raw call count toward `victim` and kills by rank.
    fn respond(&self, system: &mut System, victim: Pid, since: SimTime) -> CallCountDetection {
        let horizon = SimTime::from_micros(since.as_micros().saturating_sub(50_000));
        let mut counts: std::collections::BTreeMap<Uid, u64> = Default::default();
        for record in system.driver().log_since(horizon) {
            if record.to_pid == victim && record.from_uid.is_app() {
                *counts.entry(record.from_uid).or_insert(0) += 1;
            }
        }
        let mut call_counts: Vec<(Uid, u64)> = counts.into_iter().collect();
        call_counts.sort_by_key(|(uid, calls)| (std::cmp::Reverse(*calls), *uid));
        let mut killed = Vec::new();
        for &(uid, calls) in &call_counts {
            if killed.len() >= self.max_kills || calls == 0 {
                break;
            }
            match system.jgr_count(victim) {
                Some(count) if count >= self.normal_level => {
                    // The strawman has no retry logic: a failed or absent
                    // kill is simply skipped (one more way it is naive).
                    if system.kill_app(uid).released_entries() {
                        system.clock().advance(SimDuration::from_millis(30));
                        killed.push(uid);
                    }
                }
                _ => break,
            }
        }
        system.driver_mut().prune_log(since);
        CallCountDetection {
            victim,
            call_counts,
            killed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_framework::{CallOptions, SystemConfig};

    /// The paper's §V-A counter-example, executed: a benign app makes
    /// *more* IPC calls than the attacker, all of them innocent; the
    /// call-count strawman kills the benign app first, while the leak
    /// (and the alarm) came from the quieter attacker.
    #[test]
    fn call_count_defense_kills_the_wrong_app() {
        let mut system = System::boot_with(SystemConfig {
            seed: 13,
            jgr_capacity: Some(3_200),
            ..SystemConfig::default()
        });
        let defense = CallCountDefense::install(&mut system, 250, 750, 150)
            .expect("strawman thresholds are valid");
        let evil = system.install_app("com.quiet.leaker", []);
        let busy = system.install_app("com.busy.innocent", []);
        let mut detection = None;
        for _ in 0..5_000 {
            // Three innocent calls for every leaking call.
            for _ in 0..3 {
                system
                    .call_service(busy, "clipboard", "getState", CallOptions::default())
                    .expect("innocent method exists");
            }
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .expect("clipboard registered");
            if let Some(d) = defense.poll(&mut system) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("the leak must trip the alarm");
        assert_eq!(
            d.call_counts.first().map(|(uid, _)| *uid),
            Some(busy),
            "the chatty innocent app tops the raw call ranking"
        );
        assert_eq!(
            d.killed.first(),
            Some(&busy),
            "…and the strawman kills it first: {:?}",
            d.killed
        );
    }
}
