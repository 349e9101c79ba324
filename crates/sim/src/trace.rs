//! A lightweight in-memory trace used by experiments for post-hoc analysis.

use std::cell::RefCell;
use std::rc::Rc;

use serde::Serialize;

use crate::{Pid, SimTime, Uid};

/// A single labelled trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// When the event happened on the virtual timeline.
    pub at: SimTime,
    /// Process the event is attributed to, when applicable.
    pub pid: Option<Pid>,
    /// Uid the event is attributed to, when applicable.
    pub uid: Option<Uid>,
    /// Event kind, e.g. `"jgr.add"` or `"binder.transact"`.
    pub kind: String,
    /// Free-form detail, e.g. the IPC interface name.
    pub detail: String,
}

/// A shared, append-only trace sink.
///
/// Cloning a `TraceSink` produces another handle on the same buffer, so a
/// sink can be threaded through the runtime, the Binder driver, and the
/// defense monitor while the experiment keeps one handle to read back.
///
/// # Example
///
/// ```
/// use jgre_sim::{SimTime, TraceSink};
///
/// let sink = TraceSink::new();
/// let writer = sink.clone();
/// writer.record(SimTime::ZERO, None, None, "jgr.add", "clipboard listener");
/// assert_eq!(sink.len(), 1);
/// assert_eq!(sink.snapshot()[0].kind, "jgr.add");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    events: Rc<RefCell<Vec<TraceEvent>>>,
    enabled: Rc<RefCell<bool>>,
}

impl TraceSink {
    /// Creates an enabled, empty sink.
    pub fn new() -> Self {
        Self {
            events: Rc::new(RefCell::new(Vec::new())),
            enabled: Rc::new(RefCell::new(true)),
        }
    }

    /// Creates a sink that drops everything; useful for benchmarks where
    /// tracing overhead would pollute measurements.
    pub fn disabled() -> Self {
        let sink = Self::new();
        *sink.enabled.borrow_mut() = false;
        sink
    }

    /// Whether records are currently kept.
    pub fn is_enabled(&self) -> bool {
        *self.enabled.borrow()
    }

    /// Appends a record (no-op when disabled). `detail` is rendered only
    /// when the sink keeps records, so hot paths pass `format_args!`
    /// and pay nothing for it while tracing is off.
    pub fn record(
        &self,
        at: SimTime,
        pid: Option<Pid>,
        uid: Option<Uid>,
        kind: &str,
        detail: impl std::fmt::Display,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.events.borrow_mut().push(TraceEvent {
            at,
            pid,
            uid,
            kind: kind.to_owned(),
            detail: detail.to_string(),
        });
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether the sink holds no records.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Copies out all records.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.borrow().clone()
    }

    /// Copies out records whose `kind` matches exactly.
    pub fn of_kind(&self, kind: &str) -> Vec<TraceEvent> {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Drops all records.
    pub fn clear(&self) {
        self.events.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_shared_across_clones() {
        let sink = TraceSink::new();
        let w = sink.clone();
        w.record(SimTime::ZERO, Some(Pid::new(1)), None, "a", "x");
        w.record(SimTime::from_micros(5), None, Some(Uid::SYSTEM), "b", "y");
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.of_kind("b").len(), 1);
    }

    #[test]
    fn disabled_sink_drops_records() {
        let sink = TraceSink::disabled();
        sink.record(SimTime::ZERO, None, None, "a", "x");
        assert!(sink.is_empty());
        assert!(!sink.is_enabled());
    }

    #[test]
    fn clear_empties() {
        let sink = TraceSink::new();
        sink.record(SimTime::ZERO, None, None, "a", "x");
        sink.clear();
        assert!(sink.is_empty());
    }
}
