//! Observation hooks for global-reference traffic.
//!
//! The paper's defense (§V-B) "extends Android Runtime to monitor the
//! creation and deletion of JGR entries triggered by each app". This module
//! is that extension point: the defense crate registers a [`JgrObserver`]
//! with each process's [`Runtime`](crate::Runtime) and receives one
//! [`JgrEvent`] per add/remove, stamped with virtual time and the resulting
//! table size.

use std::fmt;
use std::rc::Rc;

use jgre_sim::{Pid, SimTime};
use serde::Serialize;

/// Whether a global reference was created or deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum JgrEventKind {
    /// `IndirectReferenceTable::Add` on the globals table.
    Add,
    /// An explicit `DeleteGlobalRef` or a finalizer-driven release.
    Remove,
}

impl fmt::Display for JgrEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JgrEventKind::Add => "add",
            JgrEventKind::Remove => "remove",
        })
    }
}

/// One observed global-reference operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct JgrEvent {
    /// Virtual time of the operation.
    pub at: SimTime,
    /// Process whose runtime performed the operation.
    pub pid: Pid,
    /// Add or remove.
    pub kind: JgrEventKind,
    /// Size of the global table immediately after the operation.
    pub table_size_after: usize,
}

/// Receiver of [`JgrEvent`]s.
///
/// Implementations must tolerate being called for every single JGR
/// operation on a hot path; the paper measures ~1 µs recording overhead
/// once the alarm threshold is crossed.
pub trait JgrObserver {
    /// Called synchronously after each global add/remove.
    fn on_jgr_event(&self, event: JgrEvent);
}

/// A small registry of shared observers.
///
/// # Example
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use jgre_art::{JgrEvent, JgrEventKind, JgrObserver, ObserverRegistry};
/// use jgre_sim::{Pid, SimTime};
///
/// struct Counter(Cell<u32>);
/// impl JgrObserver for Counter {
///     fn on_jgr_event(&self, _: JgrEvent) {
///         self.0.set(self.0.get() + 1);
///     }
/// }
///
/// let counter = Rc::new(Counter(Cell::new(0)));
/// let mut registry = ObserverRegistry::new();
/// registry.register(counter.clone());
/// registry.emit(JgrEvent {
///     at: SimTime::ZERO,
///     pid: Pid::new(1),
///     kind: JgrEventKind::Add,
///     table_size_after: 1,
/// });
/// assert_eq!(counter.0.get(), 1);
/// ```
#[derive(Clone, Default)]
pub struct ObserverRegistry {
    observers: Vec<Rc<dyn JgrObserver>>,
}

impl ObserverRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observer; it stays registered until the runtime dies or
    /// [`clear`](Self::clear) is called.
    pub fn register(&mut self, observer: Rc<dyn JgrObserver>) {
        self.observers.push(observer);
    }

    /// Drops every registered observer (a monitoring process died; its
    /// successor re-registers after recovery).
    pub fn clear(&mut self) {
        self.observers.clear();
    }

    /// Number of registered observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether no observers are registered.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    /// Delivers `event` to every observer in registration order.
    pub fn emit(&self, event: JgrEvent) {
        for observer in &self.observers {
            observer.on_jgr_event(event);
        }
    }
}

impl fmt::Debug for ObserverRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverRegistry")
            .field("observers", &self.observers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    struct Recorder(RefCell<Vec<JgrEvent>>);
    impl JgrObserver for Recorder {
        fn on_jgr_event(&self, event: JgrEvent) {
            self.0.borrow_mut().push(event);
        }
    }

    #[test]
    fn emit_fans_out_in_order() {
        let a = Rc::new(Recorder(RefCell::new(Vec::new())));
        let b = Rc::new(Recorder(RefCell::new(Vec::new())));
        let mut reg = ObserverRegistry::new();
        reg.register(a.clone());
        reg.register(b.clone());
        assert_eq!(reg.len(), 2);
        let ev = JgrEvent {
            at: SimTime::from_micros(9),
            pid: Pid::new(3),
            kind: JgrEventKind::Remove,
            table_size_after: 7,
        };
        reg.emit(ev);
        assert_eq!(a.0.borrow().as_slice(), &[ev]);
        assert_eq!(b.0.borrow().as_slice(), &[ev]);
    }

    #[test]
    fn empty_registry_is_noop() {
        let reg = ObserverRegistry::new();
        assert!(reg.is_empty());
        reg.emit(JgrEvent {
            at: SimTime::ZERO,
            pid: Pid::new(1),
            kind: JgrEventKind::Add,
            table_size_after: 1,
        });
    }
}
