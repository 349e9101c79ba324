//! Durability for [`JgreDefender`]: a write-ahead journal, checkpoints
//! and a supervised restart loop.
//!
//! A defender built by [`JgreDefender::install_durable`] or
//! [`JgreDefender::resume`] may itself die — at any [`CrashPoint`] the
//! fault layer's `defender-crash` channel selects — and come back with
//! its detection state intact:
//!
//! 1. every monitor event and completed decision is appended to the
//!    write-ahead [`Journal`] before the in-memory state depending on it
//!    is considered durable;
//! 2. every `checkpoint_interval` records (and after every completed
//!    pass) the full state is checkpointed and the journal compacted, so
//!    replay is bounded;
//! 3. on a crash, a [`Supervisor`] (Android-`init` style: bounded
//!    consecutive restarts, exponential backoff) decides whether to
//!    restart; recovery reopens the journal (truncating the torn tail
//!    the dying process left), restores the newest valid checkpoint, and
//!    replays the suffix.
//!
//! Bookkeeping (journal appends, checkpoint writes) costs zero virtual
//! time; only the crash itself — supervisor backoff plus replay —
//! advances the clock. A durable run whose crash channel never fires is
//! therefore byte-identical to one from [`JgreDefender::install`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use jgre_framework::{Supervisor, SupervisorConfig, System};
use jgre_sim::{CrashPoint, Pid, SimDuration, SimTime};
use serde::Serialize;

use super::end_pass;
use crate::checkpoint::{
    config_fingerprint, decode_checkpoint, encode_checkpoint, DefenderCheckpoint,
};
use crate::journal::{Journal, JournalRecord, PersistError, StateStore};
use crate::{DefenderConfig, DetectionOutcome, JgrMonitor, JgreDefender};

/// Modeled on-device cost of re-applying one journal record during
/// recovery (the paper measures ~1 µs per monitored event; replay is a
/// touch heavier for deserialize + apply).
const REPLAY_COST: SimDuration = SimDuration::from_micros(2);

/// Restart and checkpoint policy of a durable defender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurableConfig {
    /// Restart policy.
    pub supervisor: SupervisorConfig,
    /// Journal records between periodic checkpoints — the replay bound.
    pub checkpoint_interval: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            supervisor: SupervisorConfig::default(),
            checkpoint_interval: 512,
        }
    }
}

/// Counters describing how rough the defender's life has been.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// Times the defender process died.
    pub crashes: u64,
    /// Times the supervisor restarted it.
    pub restarts: u64,
    /// Whether the supervisor hit its restart budget and stopped trying.
    pub gave_up: bool,
    /// Journal records re-applied across all recoveries.
    pub replayed_records: u64,
    /// Torn/corrupt journal bytes dropped on reopen.
    pub truncated_bytes: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// Checkpoints rejected on recovery (bad checksum, stale schema,
    /// config mismatch) — recovery fell back to journal-only replay.
    pub checkpoints_rejected: u64,
    /// Virtual time spent crashed: supervisor backoff plus replay cost.
    pub recovery_delay_us: u64,
    /// Backing-store failures survived: checkpoint loads and writes, and
    /// journal appends and compactions (each a lost WAL write).
    pub store_errors: u64,
}

/// The durable half of a defender: its store, journal, restart policy
/// and counters.
#[derive(Debug)]
pub(super) struct Durable {
    config: DurableConfig,
    store: Rc<dyn StateStore>,
    journal: Rc<RefCell<Journal>>,
    supervisor: Supervisor,
    stats: RecoveryStats,
    /// Fingerprint of the defender configuration, stamped into every
    /// checkpoint.
    fingerprint: u64,
}

impl JgreDefender {
    /// Installs the defense with a fresh journal on `store` (a first
    /// boot; any previous state on the store is discarded).
    ///
    /// # Errors
    ///
    /// [`PersistError::Config`] for an invalid defender configuration,
    /// [`PersistError::Io`] if the store cannot be initialised.
    pub fn install_durable(
        system: &mut System,
        config: DefenderConfig,
        durable: DurableConfig,
        store: Rc<dyn StateStore>,
    ) -> Result<Self, PersistError> {
        let mut defender = Self::install(system, config)?;
        let journal = Journal::create(store.clone())?;
        let state = Durable::new(durable, store, journal, &defender.config);
        defender.monitor().attach_journal(state.journal.clone());
        defender.durable = Some(RefCell::new(state));
        Ok(defender)
    }

    /// Resumes the defense from whatever state `store` holds (the host
    /// process restarted): reopen the journal, restore the newest valid
    /// checkpoint, replay the suffix.
    ///
    /// # Errors
    ///
    /// [`PersistError::Config`] for an invalid defender configuration,
    /// [`PersistError::Io`] if the store cannot be read.
    pub fn resume(
        system: &mut System,
        config: DefenderConfig,
        durable: DurableConfig,
        store: Rc<dyn StateStore>,
    ) -> Result<Self, PersistError> {
        let journal = Journal::detached(store.clone());
        let mut state = Durable::new(durable, store, journal, &config);
        let (monitor, last_pass) = state.recover(system, &config)?;
        Ok(Self {
            monitor: RefCell::new(monitor),
            config,
            last_pass: RefCell::new(last_pass),
            durable: Some(RefCell::new(state)),
        })
    }

    /// The durable half of a tick, after the pass: journal the decision,
    /// then checkpoint when a pass completed or the journal reached the
    /// checkpoint interval. Both writes are crash points. A defender
    /// without a store passes the outcome straight through.
    pub(super) fn persist(
        &self,
        system: &System,
        outcome: Option<DetectionOutcome>,
    ) -> Result<Option<DetectionOutcome>, CrashPoint> {
        let Some(durable) = &self.durable else {
            return Ok(outcome);
        };
        if let Some(outcome) = &outcome {
            // The decision append is itself a kill boundary: the process
            // can die with this very write in flight.
            self.may_crash(system, CrashPoint::JournalAppend)?;
            durable
                .borrow()
                .journal
                .borrow_mut()
                .append(&JournalRecord::Decision {
                    victim: outcome.victim,
                    completed_at: system.now(),
                    killed: outcome.killed.clone(),
                });
        }
        let mut durable = durable.borrow_mut();
        if outcome.is_some()
            || durable.journal.borrow().records_since_compaction()
                >= durable.config.checkpoint_interval
        {
            self.may_crash(system, CrashPoint::Checkpoint)?;
            durable.checkpoint(system, &self.monitor(), &self.last_pass.borrow(), 0);
        }
        durable.supervisor.on_healthy();
        Ok(outcome)
    }

    /// The defender process dies; the supervisor decides what happens
    /// next.
    pub(super) fn crash(&self, system: &mut System) {
        let Some(durable) = &self.durable else {
            return;
        };
        let mut durable = durable.borrow_mut();
        durable.stats.crashes += 1;
        // The write in flight when the process died: a torn tail that
        // reopen must truncate. Every crash exercises that path.
        durable.journal.borrow_mut().append_torn_frame();
        // The dead process's observer registrations die with it.
        system.clear_jgr_observers();
        let Some(backoff) = durable.supervisor.on_crash() else {
            durable.stats.gave_up = true;
            return;
        };
        system.clock().advance(backoff);
        durable.stats.recovery_delay_us += backoff.as_micros();
        durable.stats.restarts += 1;
        match durable.recover(system, &self.config) {
            Ok((monitor, last_pass)) => {
                *self.monitor.borrow_mut() = monitor;
                *self.last_pass.borrow_mut() = last_pass;
            }
            Err(_) => {
                durable.stats.store_errors += 1;
                durable.stats.gave_up = true;
            }
        }
    }

    /// Forces a checkpoint now (benchmarks). A no-op without a store.
    pub fn checkpoint_now(&self, system: &System) {
        if let Some(durable) = &self.durable {
            durable
                .borrow_mut()
                .checkpoint(system, &self.monitor(), &self.last_pass.borrow(), 0);
        }
    }

    /// Whether the defender process is alive: always for a defender
    /// without a store, and until the supervisor gives up (or recovery
    /// fails) for a durable one.
    pub fn is_running(&self) -> bool {
        self.durable
            .as_ref()
            .is_none_or(|d| !d.borrow().stats.gave_up)
    }

    /// The lifetime crash and recovery counters (all zero without a
    /// store).
    pub fn stats(&self) -> RecoveryStats {
        let Some(durable) = &self.durable else {
            return RecoveryStats::default();
        };
        let durable = durable.borrow();
        let mut stats = durable.stats;
        stats.store_errors += durable.journal.borrow().append_errors();
        stats
    }

    /// The restart policy's state, for a durable defender.
    pub fn supervisor(&self) -> Option<Supervisor> {
        self.durable.as_ref().map(|d| d.borrow().supervisor.clone())
    }

    /// Journal records since the last compaction (the next crash's
    /// replay bound); zero without a store.
    pub fn records_since_compaction(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| {
            d.borrow().journal.borrow().records_since_compaction()
        })
    }
}

impl Durable {
    fn new(
        config: DurableConfig,
        store: Rc<dyn StateStore>,
        journal: Journal,
        defender: &DefenderConfig,
    ) -> Self {
        Self {
            config,
            store,
            journal: Rc::new(RefCell::new(journal)),
            supervisor: Supervisor::new(config.supervisor),
            stats: RecoveryStats::default(),
            fingerprint: config_fingerprint(defender),
        }
    }

    /// Rebuilds the monitor and cooldown stamps from the store: newest
    /// valid checkpoint (if any) plus a replay of the journal suffix. The
    /// rebuilt monitor is installed on `system` and journaling again.
    fn recover(
        &mut self,
        system: &mut System,
        config: &DefenderConfig,
    ) -> Result<(Rc<JgrMonitor>, BTreeMap<Pid, SimTime>), PersistError> {
        let cp = match self.store.load_checkpoint() {
            Ok(Some(bytes)) => match decode_checkpoint(&bytes) {
                Ok(cp) if cp.config_fingerprint == self.fingerprint => Some(cp),
                Ok(_) | Err(_) => {
                    // Stale schema, bit rot, or a config change: the
                    // checkpoint is untrustworthy. Journal-only recovery.
                    self.stats.checkpoints_rejected += 1;
                    None
                }
            },
            Ok(None) => None,
            Err(_) => {
                self.stats.store_errors += 1;
                None
            }
        };
        let (journal, report) = Journal::reopen(self.store.clone())?;
        self.stats.truncated_bytes += report.truncated_bytes;
        let monitor =
            JgrMonitor::install(system, config.record_threshold, config.trigger_threshold)?;
        let mut last_pass = BTreeMap::new();
        let mut start_seq = 0u64;
        if let Some(cp) = &cp {
            monitor.restore(&cp.monitor);
            last_pass.extend(cp.last_pass.iter().copied());
            start_seq = cp.journal_seq;
        }
        let mut replayed = 0u64;
        for (seq, record) in &report.records {
            if *seq < start_seq {
                continue;
            }
            replayed += 1;
            match record {
                JournalRecord::Event {
                    pid,
                    kind,
                    at,
                    logged_at,
                    table_size,
                } => monitor.replay_event(*pid, *kind, *at, *logged_at, *table_size),
                JournalRecord::Decision {
                    victim,
                    completed_at,
                    ..
                } => end_pass(&monitor, &mut last_pass, *victim, Some(*completed_at)),
            }
        }
        self.stats.replayed_records += replayed;
        let replay_cost = REPLAY_COST * replayed;
        system.clock().advance(replay_cost);
        self.stats.recovery_delay_us += replay_cost.as_micros();
        // The dead process's journal handle goes; its lost writes stay
        // counted.
        let dead = std::mem::replace(&mut self.journal, Rc::new(RefCell::new(journal)));
        self.stats.store_errors += dead.borrow().append_errors();
        // Checkpoint the rebuilt state and rebase the journal past
        // everything applied, so the *next* crash replays from here.
        self.checkpoint(system, &monitor, &last_pass, start_seq);
        // Live events start journaling only once replay is done, so
        // nothing is journaled twice.
        monitor.attach_journal(self.journal.clone());
        Ok((monitor, last_pass))
    }

    /// Writes a checkpoint of the given state and compacts the journal
    /// behind it. `seq_floor` keeps the sequence monotone when the
    /// journal itself had to be reset (bad header) while a checkpoint
    /// from a later epoch survived.
    fn checkpoint(
        &mut self,
        system: &System,
        monitor: &JgrMonitor,
        last_pass: &BTreeMap<Pid, SimTime>,
        seq_floor: u64,
    ) {
        let journal_seq = self.journal.borrow().next_seq().max(seq_floor);
        let cp = DefenderCheckpoint {
            journal_seq,
            taken_at: system.now(),
            config_fingerprint: self.fingerprint,
            monitor: monitor.snapshot(),
            last_pass: last_pass.iter().map(|(&pid, &at)| (pid, at)).collect(),
        };
        match self.store.store_checkpoint(&encode_checkpoint(&cp)) {
            Ok(()) => {
                self.stats.checkpoints_written += 1;
                self.journal.borrow_mut().compact(journal_seq);
            }
            Err(_) => {
                // Without a durable checkpoint the journal stays the
                // only truth: do NOT compact.
                self.stats.store_errors += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemoryStore;
    use jgre_framework::{CallOptions, SystemConfig};
    use jgre_sim::{FaultPlan, Uid};

    const CAP: usize = 4_000;

    fn scaled_config() -> DefenderConfig {
        DefenderConfig {
            record_threshold: CAP / 12,
            trigger_threshold: CAP / 4,
            normal_level: CAP / 10,
            ..DefenderConfig::default()
        }
    }

    fn durable_config() -> DurableConfig {
        DurableConfig {
            checkpoint_interval: 64,
            ..DurableConfig::default()
        }
    }

    fn boot(faults: FaultPlan) -> System {
        System::boot_with(SystemConfig {
            seed: 7,
            jgr_capacity: Some(CAP),
            faults,
            ..SystemConfig::default()
        })
    }

    fn install(system: &mut System, durable: DurableConfig) -> (JgreDefender, Rc<MemoryStore>) {
        let store = Rc::new(MemoryStore::new());
        let defender =
            JgreDefender::install_durable(system, scaled_config(), durable, store.clone()).unwrap();
        (defender, store)
    }

    fn attack_until_detection(
        system: &mut System,
        defender: &JgreDefender,
        evil: Uid,
        budget: usize,
    ) -> Option<DetectionOutcome> {
        for _ in 0..budget {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            if let Some(d) = defender.poll(system) {
                return Some(d);
            }
            // A missing pid means the kill landed but the outcome died
            // with the process.
            system.pid_of(evil)?;
        }
        panic!("attack must trip the alarm within {budget} calls");
    }

    fn fill_below_trigger(system: &mut System, defender: &JgreDefender, evil: Uid) {
        for _ in 0..600 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(defender.poll(system).is_none());
        }
    }

    #[test]
    fn no_crash_channel_means_no_crashes_and_a_clean_detection() {
        let mut system = boot(FaultPlan::none());
        let (defender, _) = install(&mut system, durable_config());
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000)
            .expect("no crash channel: the outcome is delivered");
        assert_eq!(d.killed, vec![evil]);
        let stats = defender.stats();
        assert_eq!(stats.crashes, 0);
        assert!(!stats.gave_up);
        assert!(stats.checkpoints_written >= 1, "decision checkpoint");
    }

    #[test]
    fn crash_at_poll_start_recovers_and_still_kills_the_attacker() {
        let plan = FaultPlan {
            crash: 1.0,
            crash_budget: 1,
            crash_point: Some(CrashPoint::PollStart),
            ..FaultPlan::none()
        };
        let mut system = boot(plan);
        let (defender, _) = install(&mut system, durable_config());
        let evil = system.install_app("com.evil", []);
        attack_until_detection(&mut system, &defender, evil, 8_000);
        assert!(system.pid_of(evil).is_none(), "attacker still dies");
        let stats = defender.stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert!(!stats.gave_up);
        assert!(stats.truncated_bytes > 0, "every crash leaves a torn tail");
        assert!(stats.recovery_delay_us > 0);
        assert!(defender.is_running());
    }

    #[test]
    fn zero_restart_budget_gives_up_permanently() {
        let plan = FaultPlan {
            crash: 1.0,
            crash_budget: 1,
            crash_point: Some(CrashPoint::PollStart),
            ..FaultPlan::none()
        };
        let mut system = boot(plan);
        let durable = DurableConfig {
            supervisor: SupervisorConfig {
                max_restarts: 0,
                ..SupervisorConfig::default()
            },
            ..durable_config()
        };
        let (defender, _) = install(&mut system, durable);
        let evil = system.install_app("com.evil", []);
        for _ in 0..6_000 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(defender.poll(&mut system).is_none());
        }
        let stats = defender.stats();
        assert!(stats.gave_up);
        assert_eq!(stats.crashes, 1, "a dead defender cannot crash again");
        assert_eq!(stats.restarts, 0);
        assert!(!defender.is_running());
        assert!(system.pid_of(evil).is_some(), "nobody left to kill it");
    }

    #[test]
    fn resume_restores_monitor_state_across_a_host_restart() {
        let mut system = boot(FaultPlan::none());
        let (defender, store) = install(&mut system, durable_config());
        let evil = system.install_app("com.evil", []);
        // Push past the record threshold but stay below the trigger.
        fill_below_trigger(&mut system, &defender, evil);
        let live = defender.monitor().current_count(system.system_server_pid());
        assert!(live > 0);
        drop(defender);
        system.clear_jgr_observers();
        let resumed =
            JgreDefender::resume(&mut system, scaled_config(), durable_config(), store).unwrap();
        let recovered = resumed.monitor().current_count(system.system_server_pid());
        assert_eq!(recovered, live, "replay rebuilds the table size");
        // And the resumed defender still finishes the job.
        let d = attack_until_detection(&mut system, &resumed, evil, 8_000);
        assert!(d.is_some() || system.pid_of(evil).is_none());
    }

    #[test]
    fn periodic_checkpoints_bound_replay() {
        let mut system = boot(FaultPlan::none());
        let durable = durable_config();
        let interval = durable.checkpoint_interval;
        let (defender, store) = install(&mut system, durable);
        let evil = system.install_app("com.evil", []);
        for _ in 0..600 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            defender.poll(&mut system);
            assert!(
                defender.records_since_compaction() < interval + 8,
                "compaction keeps the journal near the interval"
            );
        }
        assert!(defender.stats().checkpoints_written > 1);
        drop(defender);
        system.clear_jgr_observers();
        let resumed = JgreDefender::resume(&mut system, scaled_config(), durable, store).unwrap();
        assert!(
            resumed.stats().replayed_records <= interval + 8,
            "replay is bounded by the checkpoint interval, got {}",
            resumed.stats().replayed_records
        );
    }
}
