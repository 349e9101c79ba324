//! A simulated Java heap with pin-count lifetimes and finalizers.
//!
//! The model is intentionally simpler than a tracing collector but preserves
//! the property the paper's sift rules depend on: an object that nothing
//! *pins* (no JNI reference, no service-side retention) is reclaimed at the
//! next garbage collection, and reclamation runs the object's finalizers —
//! which is how a dead `BinderProxy` deletes the JNI global reference that
//! pinned its native peer.

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ArtError, IndirectRef};

/// A handle to a heap object. Handles are generation-checked: using a handle
/// after its object was collected yields [`ArtError::StaleObjRef`] rather
/// than touching a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjRef {
    index: u32,
    serial: u32,
}

impl ObjRef {
    /// Slot index within the heap (stable for the object's lifetime).
    pub fn index(self) -> u32 {
        self.index
    }

    /// Generation counter distinguishing reuses of the same slot.
    pub fn serial(self) -> u32 {
        self.serial
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj@{}#{}", self.index, self.serial)
    }
}

/// An action run when an object is reclaimed by the collector.
///
/// Finalizers model the release half of Android's reference plumbing: the
/// paper's sift rules 2–4 (§III-C.3) classify IPC methods as *innocent*
/// exactly when the received Binder object becomes unreachable after the
/// call, so its finalizer returns the JNI global reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finalizer {
    /// Delete a global reference from this runtime's JGR table
    /// (`BinderProxy.finalize()` → `android_os_BinderProxy_destroy`).
    DeleteGlobalRef(IndirectRef),
    /// Delete a weak global reference.
    DeleteWeakGlobalRef(IndirectRef),
    /// Unpin another object of the same heap (a container releasing its
    /// element).
    Unpin(ObjRef),
}

#[derive(Debug, Clone)]
struct ObjectRecord {
    /// Literal class names are borrowed, not copied.
    class: Cow<'static, str>,
    pins: u32,
    finalizers: Vec<Finalizer>,
}

#[derive(Debug, Clone, Default)]
struct Slot {
    serial: u32,
    record: Option<ObjectRecord>,
}

/// The simulated heap for one runtime.
///
/// Objects start **unpinned**: they survive until the next collection unless
/// something pins them (a reference-table entry or explicit retention).
///
/// # Example
///
/// ```
/// use jgre_art::Heap;
///
/// let mut heap = Heap::new();
/// let obj = heap.alloc("android.os.Binder");
/// assert_eq!(heap.class_of(obj).unwrap(), "android.os.Binder");
/// heap.pin(obj).unwrap();
/// assert_eq!(heap.live_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Heap {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    total_allocated: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new, unpinned object of `class`.
    pub fn alloc(&mut self, class: impl Into<Cow<'static, str>>) -> ObjRef {
        let record = ObjectRecord {
            class: class.into(),
            pins: 0,
            finalizers: Vec::new(),
        };
        self.total_allocated += 1;
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.record = Some(record);
            ObjRef {
                index,
                serial: slot.serial,
            }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                serial: 0,
                record: Some(record),
            });
            ObjRef { index, serial: 0 }
        }
    }

    fn record(&self, obj: ObjRef) -> Result<&ObjectRecord, ArtError> {
        self.slots
            .get(obj.index as usize)
            .filter(|s| s.serial == obj.serial)
            .and_then(|s| s.record.as_ref())
            .ok_or(ArtError::StaleObjRef)
    }

    fn record_mut(&mut self, obj: ObjRef) -> Result<&mut ObjectRecord, ArtError> {
        self.slots
            .get_mut(obj.index as usize)
            .filter(|s| s.serial == obj.serial)
            .and_then(|s| s.record.as_mut())
            .ok_or(ArtError::StaleObjRef)
    }

    /// Whether `obj` still refers to a live object.
    pub fn is_live(&self, obj: ObjRef) -> bool {
        self.record(obj).is_ok()
    }

    /// Class name of a live object.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    pub fn class_of(&self, obj: ObjRef) -> Result<&str, ArtError> {
        self.record(obj).map(|r| &*r.class)
    }

    /// Increments the pin count, keeping the object alive across
    /// collections.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    pub fn pin(&mut self, obj: ObjRef) -> Result<(), ArtError> {
        self.record_mut(obj)?.pins += 1;
        Ok(())
    }

    /// Decrements the pin count.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    ///
    /// # Panics
    ///
    /// Panics if the pin count is already zero — that is always a bug in the
    /// calling reference-management code, not a recoverable condition.
    pub fn unpin(&mut self, obj: ObjRef) -> Result<(), ArtError> {
        let record = self.record_mut(obj)?;
        assert!(record.pins > 0, "unpin of an unpinned object {obj}");
        record.pins -= 1;
        Ok(())
    }

    /// Attaches a finalizer to run when `obj` is collected.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    pub fn add_finalizer(&mut self, obj: ObjRef, finalizer: Finalizer) -> Result<(), ArtError> {
        self.record_mut(obj)?.finalizers.push(finalizer);
        Ok(())
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Total objects ever allocated.
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Sweeps one round: frees every unpinned object and returns the freed
    /// handles together with their pending finalizers. The caller
    /// ([`Runtime::collect_garbage`](crate::Runtime::collect_garbage)) is
    /// responsible for executing the finalizers and re-sweeping until a
    /// fixpoint, since finalizers may unpin further objects.
    pub(crate) fn sweep_unpinned(&mut self) -> Vec<(ObjRef, Vec<Finalizer>)> {
        let mut freed = Vec::new();
        for index in 0..self.slots.len() {
            let should_free = matches!(&self.slots[index].record, Some(r) if r.pins == 0);
            if should_free {
                let slot = &mut self.slots[index];
                let record = slot.record.take().expect("checked above");
                let obj = ObjRef {
                    index: index as u32,
                    serial: slot.serial,
                };
                slot.serial = slot.serial.wrapping_add(1);
                self.free.push(index as u32);
                self.live -= 1;
                freed.push((obj, record.finalizers));
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_classes() {
        let mut heap = Heap::new();
        let a = heap.alloc("A");
        let b = heap.alloc("B");
        assert_eq!(heap.class_of(a).unwrap(), "A");
        assert_eq!(heap.class_of(b).unwrap(), "B");
        assert_eq!(heap.live_count(), 2);
        assert_eq!(heap.total_allocated(), 2);
    }

    #[test]
    fn sweep_frees_only_unpinned() {
        let mut heap = Heap::new();
        let pinned = heap.alloc("pinned");
        let loose = heap.alloc("loose");
        heap.pin(pinned).unwrap();
        let freed = heap.sweep_unpinned();
        assert_eq!(freed.len(), 1);
        assert_eq!(freed[0].0, loose);
        assert!(heap.is_live(pinned));
        assert!(!heap.is_live(loose));
    }

    #[test]
    fn stale_handles_are_rejected() {
        let mut heap = Heap::new();
        let obj = heap.alloc("X");
        heap.sweep_unpinned();
        assert_eq!(heap.class_of(obj), Err(ArtError::StaleObjRef));
        assert_eq!(heap.pin(obj), Err(ArtError::StaleObjRef));
        // Slot reuse bumps the serial, so the old handle stays invalid.
        let reused = heap.alloc("Y");
        assert_eq!(reused.index(), obj.index());
        assert_ne!(reused.serial(), obj.serial());
        assert!(heap.is_live(reused));
        assert!(!heap.is_live(obj));
    }

    #[test]
    fn unpin_then_sweep_frees() {
        let mut heap = Heap::new();
        let obj = heap.alloc("X");
        heap.pin(obj).unwrap();
        assert!(heap.sweep_unpinned().is_empty());
        heap.unpin(obj).unwrap();
        assert_eq!(heap.sweep_unpinned().len(), 1);
    }

    #[test]
    #[should_panic(expected = "unpin of an unpinned object")]
    fn unpin_underflow_panics() {
        let mut heap = Heap::new();
        let obj = heap.alloc("X");
        let _ = heap.unpin(obj);
    }

    #[test]
    fn finalizers_are_returned_on_free() {
        let mut heap = Heap::new();
        let a = heap.alloc("A");
        let b = heap.alloc("B");
        heap.pin(b).unwrap();
        heap.add_finalizer(a, Finalizer::Unpin(b)).unwrap();
        let freed = heap.sweep_unpinned();
        assert_eq!(freed, vec![(a, vec![Finalizer::Unpin(b)])]);
    }
}
