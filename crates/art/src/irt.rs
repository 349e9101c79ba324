//! Indirect reference tables, ported from ART's
//! `indirect_reference_table.{h,cc}` (AOSP 6.0.1).
//!
//! ART never hands raw object pointers across the JNI boundary; it hands
//! *indirect references* — `(kind, index, serial)` triples resolved through
//! a per-kind table. The table supports:
//!
//! * **serial numbers** per slot, so a stale reference to a recycled slot is
//!   detected instead of aliasing a new object;
//! * **hole recycling**: deleting a non-top entry leaves a hole that the
//!   next add reuses;
//! * **segments** (for local tables): `push_frame` snapshots the segment
//!   state into an [`IrtCookie`], and `pop_frame` bulk-releases everything
//!   added since — exactly how local references die when a native method
//!   returns;
//! * a **hard capacity** — for the global table this is the paper's 51200.

use std::fmt;

use serde::Serialize;

use crate::{ArtError, ObjRef};

/// The three JNI reference kinds (`IndirectRefKind` in ART).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum RefKind {
    /// Valid only for the duration of a native call; freed when the frame
    /// pops.
    Local,
    /// Valid until explicitly deleted — the leak-prone kind the paper's
    /// attacks exhaust.
    Global,
    /// Like global but does not keep the referent alive.
    WeakGlobal,
}

impl fmt::Display for RefKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RefKind::Local => "local",
            RefKind::Global => "global",
            RefKind::WeakGlobal => "weak-global",
        })
    }
}

/// An opaque reference handed across the simulated JNI boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct IndirectRef {
    kind: RefKind,
    index: u32,
    serial: u32,
}

impl IndirectRef {
    /// The table kind this reference belongs to.
    pub fn kind(self) -> RefKind {
        self.kind
    }

    /// Slot index inside the owning table.
    pub fn index(self) -> u32 {
        self.index
    }

    /// Slot generation at creation time.
    pub fn serial(self) -> u32 {
        self.serial
    }
}

impl IndirectRef {
    /// Packs the reference into the pointer-sized opaque value real JNI
    /// hands out: `| serial (32) | index (30) | kind (2) |`, mirroring
    /// ART's `IndirectRef` encoding (kind in the low bits so a null check
    /// still works).
    pub fn encode(self) -> u64 {
        let kind_bits = match self.kind {
            RefKind::Local => 1u64,
            RefKind::Global => 2,
            RefKind::WeakGlobal => 3,
        };
        ((self.serial as u64) << 32) | ((self.index as u64) << 2) | kind_bits
    }

    /// Reverses [`encode`](Self::encode). `None` for malformed values
    /// (kind bits 0 — the representation of `null`).
    pub fn decode(raw: u64) -> Option<IndirectRef> {
        let kind = match raw & 0b11 {
            1 => RefKind::Local,
            2 => RefKind::Global,
            3 => RefKind::WeakGlobal,
            _ => return None,
        };
        Some(IndirectRef {
            kind,
            index: ((raw >> 2) & 0x3FFF_FFFF) as u32,
            serial: (raw >> 32) as u32,
        })
    }
}

impl fmt::Display for IndirectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ref[{}#{}]", self.kind, self.index, self.serial)
    }
}

/// Snapshot of a table's segment state (ART's `IRTSegmentState` /
/// the `cookie` argument of `IndirectReferenceTable::Add`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IrtCookie {
    top_index: u32,
    num_holes: u32,
    prev_segment_base: u32,
}

#[derive(Debug, Clone, Default)]
struct IrtSlot {
    serial: u32,
    obj: Option<ObjRef>,
}

/// One indirect reference table.
///
/// # Example
///
/// ```
/// use jgre_art::{IndirectRefTable, RefKind};
/// use jgre_art::Heap;
///
/// let mut heap = Heap::new();
/// let obj = heap.alloc("java.lang.Object");
/// let mut table = IndirectRefTable::new(RefKind::Global, 4);
/// let r = table.add(obj)?;
/// assert_eq!(table.get(r)?, obj);
/// table.remove(r)?;
/// assert_eq!(table.len(), 0);
/// # Ok::<(), jgre_art::ArtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IndirectRefTable {
    kind: RefKind,
    capacity: usize,
    slots: Vec<IrtSlot>,
    /// Index one past the highest occupied slot.
    top_index: u32,
    /// Number of empty slots below `top_index`.
    num_holes: u32,
    /// Base of the current segment; entries below it cannot be removed.
    segment_base: u32,
    high_watermark: usize,
    total_adds: u64,
    total_removes: u64,
}

impl IndirectRefTable {
    /// Creates a table of the given kind and hard capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(kind: RefKind, capacity: usize) -> Self {
        assert!(capacity > 0, "reference table capacity must be positive");
        Self {
            kind,
            capacity,
            slots: Vec::new(),
            top_index: 0,
            num_holes: 0,
            segment_base: 0,
            high_watermark: 0,
            total_adds: 0,
            total_removes: 0,
        }
    }

    /// The table's reference kind.
    pub fn kind(&self) -> RefKind {
        self.kind
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        (self.top_index - self.num_holes) as usize
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest entry count ever reached.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Lifetime add count.
    pub fn total_adds(&self) -> u64 {
        self.total_adds
    }

    /// Lifetime remove count (frame pops included).
    pub fn total_removes(&self) -> u64 {
        self.total_removes
    }

    /// Adds an entry, recycling a hole in the current segment when one
    /// exists (ART's `pscan` path), otherwise appending at the top.
    ///
    /// # Errors
    ///
    /// [`ArtError::TableOverflow`] when the table is at capacity. The caller
    /// ([`Runtime`](crate::Runtime)) escalates a *global* overflow to a
    /// runtime abort.
    pub fn add(&mut self, obj: ObjRef) -> Result<IndirectRef, ArtError> {
        if self.len() >= self.capacity {
            return Err(ArtError::TableOverflow {
                kind: self.kind,
                capacity: self.capacity,
            });
        }
        let index = if self.num_holes > 0 {
            // Scan the current segment for the first hole.
            let mut found = None;
            for i in self.segment_base..self.top_index {
                if self.slots[i as usize].obj.is_none() {
                    found = Some(i);
                    break;
                }
            }
            match found {
                Some(i) => {
                    self.num_holes -= 1;
                    i
                }
                // Holes exist only in earlier segments; append instead.
                None => self.append_index(),
            }
        } else {
            self.append_index()
        };
        let slot = &mut self.slots[index as usize];
        slot.obj = Some(obj);
        let serial = slot.serial;
        self.total_adds += 1;
        self.high_watermark = self.high_watermark.max(self.len());
        Ok(IndirectRef {
            kind: self.kind,
            index,
            serial,
        })
    }

    fn append_index(&mut self) -> u32 {
        let index = self.top_index;
        if index as usize == self.slots.len() {
            self.slots.push(IrtSlot::default());
        }
        self.top_index += 1;
        index
    }

    /// Resolves a reference to its object.
    ///
    /// # Errors
    ///
    /// [`ArtError::InvalidIndirectRef`] on kind mismatch, out-of-range
    /// index, stale serial, or deleted entry.
    pub fn get(&self, iref: IndirectRef) -> Result<ObjRef, ArtError> {
        self.check(iref)?;
        Ok(self.slots[iref.index as usize]
            .obj
            .expect("check() verified occupancy"))
    }

    fn check(&self, iref: IndirectRef) -> Result<(), ArtError> {
        if iref.kind != self.kind {
            return Err(ArtError::InvalidIndirectRef {
                kind: self.kind,
                reason: "kind mismatch",
            });
        }
        if iref.index >= self.top_index {
            return Err(ArtError::InvalidIndirectRef {
                kind: self.kind,
                reason: "index beyond table top",
            });
        }
        let slot = &self.slots[iref.index as usize];
        if slot.obj.is_none() {
            return Err(ArtError::InvalidIndirectRef {
                kind: self.kind,
                reason: "entry already deleted",
            });
        }
        if slot.serial != iref.serial {
            return Err(ArtError::InvalidIndirectRef {
                kind: self.kind,
                reason: "stale serial (slot was recycled)",
            });
        }
        Ok(())
    }

    /// Removes an entry and returns the object it referenced.
    ///
    /// Removing the top entry lowers the top past any trailing holes;
    /// removing an interior entry records a hole for recycling — both as in
    /// ART. Entries below the current segment base cannot be removed.
    ///
    /// # Errors
    ///
    /// [`ArtError::InvalidIndirectRef`] for invalid references or attempts
    /// to remove entries belonging to an outer segment.
    pub fn remove(&mut self, iref: IndirectRef) -> Result<ObjRef, ArtError> {
        self.check(iref)?;
        if iref.index < self.segment_base {
            return Err(ArtError::InvalidIndirectRef {
                kind: self.kind,
                reason: "entry belongs to an outer segment",
            });
        }
        let slot = &mut self.slots[iref.index as usize];
        let obj = slot.obj.take().expect("check() verified occupancy");
        slot.serial = slot.serial.wrapping_add(1);
        self.total_removes += 1;
        if iref.index == self.top_index - 1 {
            self.top_index -= 1;
            // Swallow trailing holes so the top always points at a live
            // entry (ART does the same scan-down).
            while self.top_index > self.segment_base
                && self.slots[(self.top_index - 1) as usize].obj.is_none()
            {
                self.top_index -= 1;
                self.num_holes -= 1;
            }
        } else {
            self.num_holes += 1;
        }
        Ok(obj)
    }

    /// Opens a new segment (a native-call frame for local tables) and
    /// returns the cookie that closes it.
    pub fn push_frame(&mut self) -> IrtCookie {
        let cookie = IrtCookie {
            top_index: self.top_index,
            num_holes: self.num_holes,
            prev_segment_base: self.segment_base,
        };
        self.segment_base = self.top_index;
        cookie
    }

    /// Closes the segment opened by `cookie`, bulk-removing every entry
    /// added since and handing each released object to `release`, in
    /// slot order.
    ///
    /// # Errors
    ///
    /// [`ArtError::FrameMismatch`] if `cookie` does not correspond to a
    /// currently open segment (pops must nest); nothing is released then.
    pub fn pop_frame(
        &mut self,
        cookie: IrtCookie,
        mut release: impl FnMut(ObjRef),
    ) -> Result<(), ArtError> {
        if cookie.top_index > self.top_index || cookie.top_index != self.segment_base {
            return Err(ArtError::FrameMismatch);
        }
        for i in cookie.top_index..self.top_index {
            let slot = &mut self.slots[i as usize];
            if let Some(obj) = slot.obj.take() {
                slot.serial = slot.serial.wrapping_add(1);
                self.total_removes += 1;
                release(obj);
            }
        }
        self.top_index = cookie.top_index;
        self.num_holes = cookie.num_holes;
        self.segment_base = cookie.prev_segment_base;
        Ok(())
    }

    /// Iterates over the live objects in the table.
    pub fn iter(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.slots[..self.top_index as usize]
            .iter()
            .filter_map(|s| s.obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Heap;

    fn obj(heap: &mut Heap, n: usize) -> Vec<ObjRef> {
        (0..n).map(|i| heap.alloc(format!("C{i}"))).collect()
    }

    #[test]
    fn add_get_remove_roundtrip() {
        let mut heap = Heap::new();
        let objs = obj(&mut heap, 3);
        let mut t = IndirectRefTable::new(RefKind::Global, 8);
        let refs: Vec<_> = objs.iter().map(|&o| t.add(o).unwrap()).collect();
        assert_eq!(t.len(), 3);
        for (r, o) in refs.iter().zip(&objs) {
            assert_eq!(t.get(*r).unwrap(), *o);
        }
        for r in refs {
            t.remove(r).unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.total_adds(), 3);
        assert_eq!(t.total_removes(), 3);
        assert_eq!(t.high_watermark(), 3);
    }

    #[test]
    fn overflow_at_capacity() {
        let mut heap = Heap::new();
        let mut t = IndirectRefTable::new(RefKind::Global, 2);
        t.add(heap.alloc("a")).unwrap();
        t.add(heap.alloc("b")).unwrap();
        let err = t.add(heap.alloc("c")).unwrap_err();
        assert_eq!(
            err,
            ArtError::TableOverflow {
                kind: RefKind::Global,
                capacity: 2
            }
        );
    }

    #[test]
    fn interior_removal_creates_hole_that_is_recycled() {
        let mut heap = Heap::new();
        let mut t = IndirectRefTable::new(RefKind::Global, 8);
        let a = t.add(heap.alloc("a")).unwrap();
        let b = t.add(heap.alloc("b")).unwrap();
        let _c = t.add(heap.alloc("c")).unwrap();
        t.remove(b).unwrap();
        assert_eq!(t.len(), 2);
        // The hole (index 1) is reused before the table grows.
        let d = t.add(heap.alloc("d")).unwrap();
        assert_eq!(d.index(), b.index());
        assert_ne!(d.serial(), b.serial());
        // The stale reference no longer resolves.
        assert!(t.get(b).is_err());
        assert!(t.get(a).is_ok());
    }

    #[test]
    fn removing_top_swallows_trailing_holes() {
        let mut heap = Heap::new();
        let mut t = IndirectRefTable::new(RefKind::Global, 8);
        let _a = t.add(heap.alloc("a")).unwrap();
        let b = t.add(heap.alloc("b")).unwrap();
        let c = t.add(heap.alloc("c")).unwrap();
        t.remove(b).unwrap(); // hole at 1
        t.remove(c).unwrap(); // removes top, swallows hole
        assert_eq!(t.len(), 1);
        let d = t.add(heap.alloc("d")).unwrap();
        assert_eq!(d.index(), 1, "top reset past the swallowed hole");
    }

    #[test]
    fn frames_nest_and_bulk_release() {
        let mut heap = Heap::new();
        let mut t = IndirectRefTable::new(RefKind::Local, 16);
        let outer = t.add(heap.alloc("outer")).unwrap();
        let cookie = t.push_frame();
        let _i1 = t.add(heap.alloc("i1")).unwrap();
        let i2 = t.add(heap.alloc("i2")).unwrap();
        // Entries below the segment base are protected.
        assert!(t.remove(outer).is_err());
        assert!(t.remove(i2).is_ok());
        let mut released = Vec::new();
        t.pop_frame(cookie, |obj| released.push(obj)).unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(t.len(), 1);
        assert!(t.get(outer).is_ok());
    }

    #[test]
    fn pop_frame_rejects_stale_cookie() {
        let mut heap = Heap::new();
        let mut t = IndirectRefTable::new(RefKind::Local, 16);
        let c1 = t.push_frame();
        t.add(heap.alloc("x")).unwrap();
        let c2 = t.push_frame();
        t.pop_frame(c2, |_| {}).unwrap();
        t.pop_frame(c1, |_| {}).unwrap();
        assert_eq!(t.pop_frame(c2, |_| {}), Err(ArtError::FrameMismatch));
    }

    #[test]
    fn kind_mismatch_detected() {
        let mut heap = Heap::new();
        let mut locals = IndirectRefTable::new(RefKind::Local, 4);
        let globals = IndirectRefTable::new(RefKind::Global, 4);
        let r = locals.add(heap.alloc("x")).unwrap();
        assert!(matches!(
            globals.get(r),
            Err(ArtError::InvalidIndirectRef { .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut heap = Heap::new();
        let mut t = IndirectRefTable::new(RefKind::WeakGlobal, 8);
        let r = t.add(heap.alloc("x")).unwrap();
        let raw = r.encode();
        assert_ne!(raw, 0, "encoded refs are never null");
        assert_eq!(IndirectRef::decode(raw), Some(r));
        assert_eq!(IndirectRef::decode(0), None, "null decodes to nothing");
        // Kind bits distinguish the three tables.
        let mut locals = IndirectRefTable::new(RefKind::Local, 8);
        let l = locals.add(heap.alloc("y")).unwrap();
        assert_ne!(l.encode() & 0b11, raw & 0b11);
    }

    #[test]
    fn len_counts_holes_correctly() {
        let mut heap = Heap::new();
        let mut t = IndirectRefTable::new(RefKind::Global, 100);
        let refs: Vec<_> = (0..10).map(|_| t.add(heap.alloc("x")).unwrap()).collect();
        for r in refs.iter().take(5) {
            t.remove(*r).unwrap();
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.iter().count(), 5);
    }
}
