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
use std::rc::Rc;

use serde::Serialize;

use crate::{ArtError, IndirectRef};

/// A handle to a heap object. Handles are generation-checked: using a handle
/// after its object was collected yields [`ArtError::StaleObjRef`] rather
/// than touching a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
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

/// The class name of a heap object. Literal names are borrowed, owned
/// names are kept as given, and a name many objects carry (the stock
/// framework references of every boot of one image) is shared, so
/// allocating such an object copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassName(ClassRepr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum ClassRepr {
    Text(Cow<'static, str>),
    Shared(Rc<str>),
}

impl ClassName {
    /// The name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            ClassRepr::Text(name) => name,
            ClassRepr::Shared(name) => name,
        }
    }
}

impl From<&'static str> for ClassName {
    fn from(name: &'static str) -> Self {
        Self(ClassRepr::Text(Cow::Borrowed(name)))
    }
}

impl From<String> for ClassName {
    fn from(name: String) -> Self {
        Self(ClassRepr::Text(Cow::Owned(name)))
    }
}

impl From<Cow<'static, str>> for ClassName {
    fn from(name: Cow<'static, str>) -> Self {
        Self(ClassRepr::Text(name))
    }
}

impl From<Rc<str>> for ClassName {
    fn from(name: Rc<str>) -> Self {
        Self(ClassRepr::Shared(name))
    }
}

/// An object's finalizers, in attachment order. A `BinderProxy` has
/// exactly one, held inline, so attaching it allocates nothing; the
/// type is no larger than a `Vec`.
#[derive(Debug, Clone, Default)]
enum Finalizers {
    #[default]
    None,
    One(Finalizer),
    Many(Vec<Finalizer>),
}

impl Finalizers {
    fn push(&mut self, finalizer: Finalizer) {
        *self = match std::mem::take(self) {
            Finalizers::None => Finalizers::One(finalizer),
            Finalizers::One(first) => Finalizers::Many(vec![first, finalizer]),
            Finalizers::Many(mut all) => {
                all.push(finalizer);
                Finalizers::Many(all)
            }
        };
    }

    fn into_sequence(self) -> impl Iterator<Item = Finalizer> {
        let (first, rest) = match self {
            Finalizers::None => (None, Vec::new()),
            Finalizers::One(first) => (Some(first), Vec::new()),
            Finalizers::Many(all) => (None, all),
        };
        first.into_iter().chain(rest)
    }
}

#[derive(Debug, Clone)]
struct ObjectRecord {
    class: ClassName,
    pins: u32,
    finalizers: Finalizers,
}

#[derive(Debug, Clone, Default)]
struct Slot {
    serial: u32,
    record: Option<ObjectRecord>,
}

/// One bit per heap slot.
#[derive(Debug, Clone, Default)]
struct SlotBits(Vec<u64>);

impl SlotBits {
    fn get(&self, index: u32) -> bool {
        self.0
            .get(index as usize / 64)
            .is_some_and(|bits| bits & (1 << (index % 64)) != 0)
    }

    fn set(&mut self, index: u32) {
        self.0[index as usize / 64] |= 1 << (index % 64);
    }

    fn clear(&mut self, index: u32) {
        self.0[index as usize / 64] &= !(1 << (index % 64));
    }

    /// The lowest set bit at or after word `word`, if any.
    fn first_from(&self, word: usize) -> Option<u32> {
        let (w, bits) = self.0[word..]
            .iter()
            .enumerate()
            .find(|(_, bits)| **bits != 0)?;
        Some(((word + w) * 64) as u32 + bits.trailing_zeros())
    }
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
    /// Collection state, one bit per slot and grown with the slots: the
    /// objects the current round frees (`due`), and the objects whose
    /// last pin a finalizer of this round released, which the next round
    /// frees (`due_next`).
    due: SlotBits,
    due_next: SlotBits,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new, unpinned object of `class`.
    pub fn alloc(&mut self, class: impl Into<ClassName>) -> ObjRef {
        let record = ObjectRecord {
            class: class.into(),
            pins: 0,
            finalizers: Finalizers::None,
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
            if index.is_multiple_of(64) {
                self.due.0.push(0);
                self.due_next.0.push(0);
            }
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
        self.record(obj).map(|r| r.class.as_str())
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

    /// Starts a collection: makes room in the free list for every live
    /// object (at most one allocation, whatever the collection frees),
    /// and marks every unpinned object due in its first round — the one
    /// full scan of the heap a collection makes. Returns whether any
    /// object is due.
    pub(crate) fn mark_unpinned(&mut self) -> bool {
        self.free.reserve(self.live);
        let mut any = false;
        for (index, slot) in self.slots.iter().enumerate() {
            if matches!(&slot.record, Some(r) if r.pins == 0) {
                self.due.set(index as u32);
                any = true;
            }
        }
        any
    }

    /// Frees the lowest-slot object due in the current round at or after
    /// word `*cursor` of the round's bitmap, and returns it with its
    /// finalizers. `None` ends the round. Rounds free in slot order, so
    /// the free list (and with it the handles later allocations get) is
    /// filled exactly as a full sweep of the heap would fill it.
    pub(crate) fn free_next_due(
        &mut self,
        cursor: &mut usize,
    ) -> Option<(ObjRef, impl Iterator<Item = Finalizer>)> {
        let index = self.due.first_from(*cursor)?;
        *cursor = index as usize / 64;
        self.due.clear(index);
        let slot = &mut self.slots[index as usize];
        let record = slot.record.take().expect("a due object is live");
        let obj = ObjRef {
            index,
            serial: slot.serial,
        };
        slot.serial = slot.serial.wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        Some((obj, record.finalizers.into_sequence()))
    }

    /// Releases a pin on behalf of a finalizer of the current round. An
    /// object the round has yet to free is left alone: a full sweep would
    /// already have freed it, making this handle stale. An object whose
    /// last pin this was becomes due in the next round.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected, or is due
    /// in the current round.
    ///
    /// # Panics
    ///
    /// As [`unpin`](Self::unpin), if the pin count is already zero.
    pub(crate) fn unpin_collecting(&mut self, obj: ObjRef) -> Result<(), ArtError> {
        let pending = self.due.get(obj.index);
        let record = self.record_mut(obj)?;
        if record.pins == 0 && pending {
            return Err(ArtError::StaleObjRef);
        }
        assert!(record.pins > 0, "unpin of an unpinned object {obj}");
        record.pins -= 1;
        if record.pins == 0 {
            self.due_next.set(obj.index);
        }
        Ok(())
    }

    /// Ends a round: the objects released during it become due. Returns
    /// whether any are.
    pub(crate) fn next_round(&mut self) -> bool {
        std::mem::swap(&mut self.due, &mut self.due_next);
        self.due.first_from(0).is_some()
    }

    /// Sweeps one round by scanning every slot: frees every unpinned
    /// object and returns the freed handles together with their pending
    /// finalizers — the reference collector the incremental rounds are
    /// checked against.
    #[cfg(test)]
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
                freed.push((obj, record.finalizers.into_sequence().collect()));
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
