//! Phase 1: the runtime-side JGR monitor.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use jgre_art::{JgrEvent, JgrEventKind, JgrObserver};
use jgre_framework::System;
use jgre_sim::{apply_skew, FaultLayer, JgrLogAction, Pid, SimTime};

use crate::checkpoint::{MonitorSnapshot, WatchSnapshot};
use crate::journal::{Journal, JournalRecord};
use crate::DefenseError;

#[derive(Debug, Default)]
struct WatchState {
    current: usize,
    recording_since: Option<SimTime>,
    add_times: Vec<SimTime>,
    alarmed: bool,
}

#[derive(Debug)]
struct Inner {
    record_threshold: usize,
    trigger_threshold: usize,
    watches: BTreeMap<Pid, WatchState>,
    faults: Option<FaultLayer>,
    journal: Option<Rc<RefCell<Journal>>>,
}

/// Observes JGR traffic on every runtime it is registered with.
///
/// Mirrors the paper's extended Android Runtime: below the record
/// threshold it only tracks the current table size (no per-event cost);
/// once a process crosses it, event timestamps are recorded; crossing the
/// trigger threshold raises the alarm the defender polls for.
///
/// Under fault injection the *timestamp log* can be truncated or
/// corrupted, but the table-size tracking (and therefore the alarm) stays
/// accurate — the runtime always knows how many entries it holds, it is
/// only the event journal that is lossy.
///
/// # Example
///
/// ```
/// use std::rc::Rc;
/// use jgre_defense::JgrMonitor;
/// use jgre_framework::{System, SystemConfig};
///
/// let mut system = System::boot(0);
/// let monitor = Rc::new(JgrMonitor::new(4_000, 12_000).unwrap());
/// system.register_jgr_observer(monitor.clone());
/// assert!(monitor.alarmed_pids().is_empty());
/// ```
#[derive(Debug)]
pub struct JgrMonitor {
    inner: RefCell<Inner>,
}

impl JgrMonitor {
    /// Creates a monitor with the given thresholds.
    ///
    /// # Errors
    ///
    /// [`DefenseError::InvalidThresholds`] unless
    /// `record_threshold < trigger_threshold`.
    pub fn new(record_threshold: usize, trigger_threshold: usize) -> Result<Self, DefenseError> {
        if record_threshold >= trigger_threshold {
            return Err(DefenseError::InvalidThresholds {
                record: record_threshold,
                trigger: trigger_threshold,
            });
        }
        Ok(Self {
            inner: RefCell::new(Inner {
                record_threshold,
                trigger_threshold,
                watches: BTreeMap::new(),
                faults: None,
                journal: None,
            }),
        })
    }

    /// Creates a monitor and wires it onto a device: it shares the
    /// device's fault layer, observes every current and future process,
    /// and the Binder driver starts its defense recording (the Figure 10
    /// overhead). Every defender installs its monitor here.
    ///
    /// # Errors
    ///
    /// [`DefenseError::InvalidThresholds`] unless
    /// `record_threshold < trigger_threshold`.
    pub fn install(
        system: &mut System,
        record_threshold: usize,
        trigger_threshold: usize,
    ) -> Result<Rc<Self>, DefenseError> {
        let monitor = Rc::new(Self::new(record_threshold, trigger_threshold)?);
        monitor.set_fault_layer(system.faults().clone());
        system.register_jgr_observer(monitor.clone());
        system.driver_mut().set_defense_recording(true);
        Ok(monitor)
    }

    /// Routes this monitor's event journal through a fault layer (the
    /// truncate/corrupt channels). Installed by the defender so the
    /// monitor shares the device's fault stream.
    pub fn set_fault_layer(&self, faults: FaultLayer) {
        self.inner.borrow_mut().faults = Some(faults);
    }

    /// Routes every observed event through a write-ahead journal before
    /// applying it. Installed by a durable defender *after* replay, so
    /// recovery does not re-journal what it replays.
    pub fn attach_journal(&self, journal: Rc<RefCell<Journal>>) {
        self.inner.borrow_mut().journal = Some(journal);
    }

    /// Pids whose alarm is raised.
    pub fn alarmed_pids(&self) -> Vec<Pid> {
        self.inner
            .borrow()
            .watches
            .iter()
            .filter(|(_, w)| w.alarmed)
            .map(|(pid, _)| *pid)
            .collect()
    }

    /// Current JGR table size as observed for `pid`.
    pub fn current_count(&self, pid: Pid) -> usize {
        self.inner
            .borrow()
            .watches
            .get(&pid)
            .map(|w| w.current)
            .unwrap_or(0)
    }

    /// Recorded add timestamps for `pid` (empty below the record
    /// threshold). Under corruption faults these are not guaranteed to be
    /// sorted; consumers that need order must sort (and should report the
    /// degradation).
    pub fn add_times(&self, pid: Pid) -> Vec<SimTime> {
        self.inner
            .borrow()
            .watches
            .get(&pid)
            .map(|w| w.add_times.clone())
            .unwrap_or_default()
    }

    /// When recording started for `pid`, if it is recording.
    pub fn recording_since(&self, pid: Pid) -> Option<SimTime> {
        self.inner
            .borrow()
            .watches
            .get(&pid)
            .and_then(|w| w.recording_since)
    }

    /// Clears the alarm and the recorded events for `pid` (after a
    /// recovery pass). Recording restarts automatically if the table is
    /// still above the record threshold at the next event.
    pub fn reset(&self, pid: Pid) {
        let mut inner = self.inner.borrow_mut();
        if let Some(w) = inner.watches.get_mut(&pid) {
            w.alarmed = false;
            w.recording_since = None;
            w.add_times.clear();
        }
    }

    /// Serializable snapshot of every watch (checkpointing).
    pub fn snapshot(&self) -> MonitorSnapshot {
        let inner = self.inner.borrow();
        MonitorSnapshot {
            watches: inner
                .watches
                .iter()
                .map(|(&pid, w)| WatchSnapshot {
                    pid,
                    current: w.current,
                    recording_since: w.recording_since,
                    add_times: w.add_times.clone(),
                    alarmed: w.alarmed,
                })
                .collect(),
        }
    }

    /// Replaces every watch with the snapshot's state (recovery from a
    /// checkpoint). Thresholds and the fault layer are untouched.
    pub fn restore(&self, snapshot: &MonitorSnapshot) {
        let mut inner = self.inner.borrow_mut();
        inner.watches = snapshot
            .watches
            .iter()
            .map(|w| {
                (
                    w.pid,
                    WatchState {
                        current: w.current,
                        recording_since: w.recording_since,
                        add_times: w.add_times.clone(),
                        alarmed: w.alarmed,
                    },
                )
            })
            .collect();
    }

    /// Re-applies a journaled event during recovery. The journal already
    /// recorded the fault layer's verdict (`logged_at`), so replay draws
    /// nothing from the fault RNG and never re-journals.
    pub(crate) fn replay_event(
        &self,
        pid: Pid,
        kind: JgrEventKind,
        at: SimTime,
        logged_at: Option<SimTime>,
        table_size: usize,
    ) {
        let mut inner = self.inner.borrow_mut();
        Self::apply(&mut inner, pid, kind, at, logged_at, table_size);
    }

    /// The shared state transition for one event: live observation and
    /// journal replay both land here, keeping them bit-identical.
    fn apply(
        inner: &mut Inner,
        pid: Pid,
        kind: JgrEventKind,
        at: SimTime,
        logged_at: Option<SimTime>,
        table_size: usize,
    ) {
        let record_threshold = inner.record_threshold;
        let trigger_threshold = inner.trigger_threshold;
        let watch = inner.watches.entry(pid).or_default();
        watch.current = table_size;
        if watch.current >= record_threshold {
            if watch.recording_since.is_none() {
                watch.recording_since = Some(at);
            }
            if let (JgrEventKind::Add, Some(at)) = (kind, logged_at) {
                watch.add_times.push(at);
            }
        } else if watch.recording_since.is_some() && !watch.alarmed {
            // The table drained on its own (benign churn): stop recording
            // and drop the buffers.
            watch.recording_since = None;
            watch.add_times.clear();
        }
        if watch.current >= trigger_threshold {
            watch.alarmed = true;
        }
    }
}

impl JgrObserver for JgrMonitor {
    fn on_jgr_event(&self, event: JgrEvent) {
        let mut inner = self.inner.borrow_mut();
        // Decide the journal fate up front (one immutable borrow of the
        // shared layer); table-size tracking below never consults it.
        let action = match inner.faults.as_ref().filter(|f| f.is_active()) {
            Some(f) => f.jgr_log_action(),
            None => JgrLogAction::Record,
        };
        let logged_at = match action {
            JgrLogAction::Record => Some(event.at),
            JgrLogAction::Lose => None,
            JgrLogAction::CorruptBy(skew) => Some(apply_skew(event.at, skew)),
        };
        // Write-ahead: the durable record (with the fault verdict baked
        // in) lands before the in-memory transition it describes.
        if let Some(journal) = inner.journal.clone() {
            journal.borrow_mut().append(&JournalRecord::Event {
                pid: event.pid,
                kind: event.kind,
                at: event.at,
                logged_at,
                table_size: event.table_size_after,
            });
        }
        Self::apply(
            &mut inner,
            event.pid,
            event.kind,
            event.at,
            logged_at,
            event.table_size_after,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_sim::{FaultIntensity, FaultKind, FaultPlan, SimTime};

    fn event(pid: u32, at: u64, kind: JgrEventKind, size: usize) -> JgrEvent {
        JgrEvent {
            at: SimTime::from_micros(at),
            pid: Pid::new(pid),
            kind,
            table_size_after: size,
        }
    }

    fn monitor(record: usize, trigger: usize) -> JgrMonitor {
        JgrMonitor::new(record, trigger).expect("test thresholds are valid")
    }

    #[test]
    fn records_only_above_threshold() {
        let m = monitor(10, 20);
        for i in 1..=9 {
            m.on_jgr_event(event(1, i, JgrEventKind::Add, i as usize));
        }
        assert!(m.add_times(Pid::new(1)).is_empty());
        m.on_jgr_event(event(1, 10, JgrEventKind::Add, 10));
        m.on_jgr_event(event(1, 11, JgrEventKind::Add, 11));
        assert_eq!(m.add_times(Pid::new(1)).len(), 2);
        assert!(m.alarmed_pids().is_empty());
    }

    #[test]
    fn alarm_raises_at_trigger() {
        let m = monitor(5, 8);
        for i in 1..=8 {
            m.on_jgr_event(event(2, i, JgrEventKind::Add, i as usize));
        }
        assert_eq!(m.alarmed_pids(), vec![Pid::new(2)]);
        assert_eq!(m.current_count(Pid::new(2)), 8);
    }

    #[test]
    fn benign_drain_stops_recording() {
        let m = monitor(5, 100);
        for i in 1..=6 {
            m.on_jgr_event(event(1, i, JgrEventKind::Add, i as usize));
        }
        assert!(!m.add_times(Pid::new(1)).is_empty());
        // Table shrinks below the record threshold.
        m.on_jgr_event(event(1, 7, JgrEventKind::Remove, 4));
        assert!(m.add_times(Pid::new(1)).is_empty());
        assert!(m.recording_since(Pid::new(1)).is_none());
    }

    #[test]
    fn reset_clears_alarm_and_buffers() {
        let m = monitor(2, 4);
        for i in 1..=4 {
            m.on_jgr_event(event(3, i, JgrEventKind::Add, i as usize));
        }
        assert!(!m.alarmed_pids().is_empty());
        m.reset(Pid::new(3));
        assert!(m.alarmed_pids().is_empty());
        assert!(m.add_times(Pid::new(3)).is_empty());
        // Still above threshold: next event restarts recording.
        m.on_jgr_event(event(3, 5, JgrEventKind::Add, 5));
        assert_eq!(m.add_times(Pid::new(3)).len(), 1);
    }

    #[test]
    fn thresholds_validated_as_typed_error() {
        assert_eq!(
            JgrMonitor::new(10, 10).err(),
            Some(DefenseError::InvalidThresholds {
                record: 10,
                trigger: 10
            })
        );
    }

    #[test]
    fn truncation_loses_timestamps_but_never_the_alarm() {
        let m = monitor(2, 50);
        m.set_fault_layer(FaultLayer::new(
            FaultPlan::single(FaultKind::JgrTruncate, FaultIntensity::Severe),
            11,
        ));
        for i in 1..=60 {
            m.on_jgr_event(event(4, i, JgrEventKind::Add, i as usize));
        }
        let recorded = m.add_times(Pid::new(4)).len();
        assert!(recorded < 59, "severe truncation must lose timestamps");
        assert!(recorded > 0, "severe truncation is not total loss");
        // The alarm rides on table_size_after, which faults cannot touch.
        assert_eq!(m.alarmed_pids(), vec![Pid::new(4)]);
        assert_eq!(m.current_count(Pid::new(4)), 60);
    }

    #[test]
    fn corruption_can_unsort_the_journal() {
        let m = monitor(2, 1_000);
        m.set_fault_layer(FaultLayer::new(
            FaultPlan::single(FaultKind::JgrCorrupt, FaultIntensity::Severe),
            13,
        ));
        for i in 0..200u64 {
            m.on_jgr_event(event(5, 10_000 + i * 10, JgrEventKind::Add, 2 + i as usize));
        }
        let times = m.add_times(Pid::new(5));
        assert_eq!(times.len(), 200, "corruption keeps every event");
        assert!(
            times.windows(2).any(|w| w[0] > w[1]),
            "±5 ms skew on 10 µs spacing must unsort somewhere"
        );
    }
}
