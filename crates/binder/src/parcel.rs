//! Typed transaction payloads.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::rc::Rc;

use serde::Serialize;

use crate::{BinderError, NodeId};

/// One value inside a [`Parcel`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ParcelValue {
    /// A 32-bit integer (4 bytes on the wire).
    I32(i32),
    /// A 64-bit integer (8 bytes).
    I64(i64),
    /// A UTF-16 string (4-byte length prefix + 2 bytes per char). The
    /// text is shared: writing a name the sender already holds (a
    /// package name) bumps a count instead of copying it.
    String(Rc<str>),
    /// An opaque byte blob of the given length; only the size matters for
    /// the simulation (Figure 10 sweeps payload size).
    Blob(usize),
    /// A strong binder reference — the `flat_binder_object` whose
    /// unmarshalling creates a JNI global reference in the receiver.
    StrongBinder(NodeId),
}

impl ParcelValue {
    /// On-the-wire byte size, approximating Android's parcel layout.
    pub fn byte_size(&self) -> usize {
        match self {
            ParcelValue::I32(_) => 4,
            ParcelValue::I64(_) => 8,
            ParcelValue::String(s) => 4 + 2 * s.chars().count(),
            ParcelValue::Blob(len) => 4 + len,
            // sizeof(flat_binder_object) on 64-bit Android.
            ParcelValue::StrongBinder(_) => 24,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            ParcelValue::I32(_) => "i32",
            ParcelValue::I64(_) => "i64",
            ParcelValue::String(_) => "string",
            ParcelValue::Blob(_) => "blob",
            ParcelValue::StrongBinder(_) => "strong-binder",
        }
    }
}

/// An ordered, typed payload for one Binder transaction.
///
/// Writing appends; reading consumes front-to-back through an internal
/// cursor, mirroring `android.os.Parcel`'s position semantics.
///
/// # Example
///
/// ```
/// use jgre_binder::Parcel;
///
/// let mut p = Parcel::new();
/// p.write_string("android"); // the enqueueToast spoof from Code-Snippet 3
/// p.write_i32(7);
/// assert_eq!(p.read_string()?, "android");
/// assert_eq!(p.read_i32()?, 7);
/// # Ok::<(), jgre_binder::BinderError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Parcel {
    values: Vec<ParcelValue>,
    cursor: usize,
}

impl Parcel {
    /// Creates an empty parcel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a 32-bit integer.
    pub fn write_i32(&mut self, v: i32) -> &mut Self {
        self.values.push(ParcelValue::I32(v));
        self
    }

    /// Appends a 64-bit integer.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.values.push(ParcelValue::I64(v));
        self
    }

    /// Appends a string. Pass an `Rc<str>` to share text the caller
    /// already holds instead of copying it.
    pub fn write_string(&mut self, v: impl Into<Rc<str>>) -> &mut Self {
        self.values.push(ParcelValue::String(v.into()));
        self
    }

    /// Appends an opaque blob of `len` bytes.
    pub fn write_blob(&mut self, len: usize) -> &mut Self {
        self.values.push(ParcelValue::Blob(len));
        self
    }

    /// Appends a strong binder (`Parcel.writeStrongBinder`). On the Java
    /// side this is `Parcel.nativeWriteStrongBinder`, one of the two
    /// special JGR entries the paper's detector handles out-of-band
    /// (§III-C.2).
    pub fn write_strong_binder(&mut self, node: NodeId) -> &mut Self {
        self.values.push(ParcelValue::StrongBinder(node));
        self
    }

    /// Core read: consumes the next value iff it has the expected type.
    ///
    /// **Cursor determinism contract.** A failed read — underflow or type
    /// mismatch — leaves the cursor exactly where it was, so the sequence
    /// of reads a dispatcher performs is a pure function of the parcel
    /// bytes: replaying the same parcel always fails at the same position
    /// with the same error. Fuzz-input replay (`jgre fuzz`) depends on
    /// this; `partial_read_failure_is_cursor_stable` pins it.
    fn read(&mut self, expected: &'static str) -> Result<&ParcelValue, BinderError> {
        let value = self
            .values
            .get(self.cursor)
            .ok_or(BinderError::ParcelUnderflow)?;
        if value.type_name() != expected {
            return Err(BinderError::ParcelTypeMismatch {
                expected,
                found: value.type_name(),
            });
        }
        self.cursor += 1;
        Ok(value)
    }

    /// Reads the next value as an `i32`.
    ///
    /// # Errors
    ///
    /// [`BinderError::ParcelUnderflow`] or
    /// [`BinderError::ParcelTypeMismatch`].
    pub fn read_i32(&mut self) -> Result<i32, BinderError> {
        match self.read("i32")? {
            ParcelValue::I32(v) => Ok(*v),
            _ => unreachable!("type checked by read()"),
        }
    }

    /// Reads the next value as an `i64`.
    ///
    /// # Errors
    ///
    /// [`BinderError::ParcelUnderflow`] or
    /// [`BinderError::ParcelTypeMismatch`].
    pub fn read_i64(&mut self) -> Result<i64, BinderError> {
        match self.read("i64")? {
            ParcelValue::I64(v) => Ok(*v),
            _ => unreachable!("type checked by read()"),
        }
    }

    /// Reads the next value as a string.
    ///
    /// # Errors
    ///
    /// [`BinderError::ParcelUnderflow`] or
    /// [`BinderError::ParcelTypeMismatch`].
    pub fn read_string(&mut self) -> Result<&str, BinderError> {
        match self.read("string")? {
            ParcelValue::String(s) => Ok(s),
            _ => unreachable!("type checked by read()"),
        }
    }

    /// Reads the next value as a blob, returning its length.
    ///
    /// # Errors
    ///
    /// [`BinderError::ParcelUnderflow`] or
    /// [`BinderError::ParcelTypeMismatch`].
    pub fn read_blob(&mut self) -> Result<usize, BinderError> {
        match self.read("blob")? {
            ParcelValue::Blob(len) => Ok(*len),
            _ => unreachable!("type checked by read()"),
        }
    }

    /// Reads the next value as a strong binder (`Parcel.readStrongBinder`).
    ///
    /// Note that this only yields the node id; turning it into a proxy
    /// object plus a JNI global reference in the receiving runtime is
    /// [`materialize_strong_binder`](crate::materialize_strong_binder) —
    /// the separation matches Android, where the JGR is created by
    /// `javaObjectForIBinder`, not by the parcel itself.
    ///
    /// # Errors
    ///
    /// [`BinderError::ParcelUnderflow`] or
    /// [`BinderError::ParcelTypeMismatch`].
    pub fn read_strong_binder(&mut self) -> Result<NodeId, BinderError> {
        match self.read("strong-binder")? {
            ParcelValue::StrongBinder(node) => Ok(*node),
            _ => unreachable!("type checked by read()"),
        }
    }

    /// Total payload size in bytes.
    pub fn payload_size(&self) -> usize {
        self.values.iter().map(ParcelValue::byte_size).sum()
    }

    /// Number of values written.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the parcel holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All strong binders in the parcel, in order — used by the framework
    /// dispatcher to materialise proxies on delivery.
    pub fn strong_binders(&self) -> Vec<NodeId> {
        self.values
            .iter()
            .filter_map(|v| match v {
                ParcelValue::StrongBinder(n) => Some(*n),
                _ => None,
            })
            .collect()
    }

    /// Empties the parcel for reuse (`Parcel.recycle`): the values and
    /// the cursor go, the value storage stays allocated.
    pub fn clear(&mut self) {
        self.values.clear();
        self.cursor = 0;
    }

    /// Resets the read cursor to the beginning (`Parcel.setDataPosition(0)`).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Current read cursor as a value index (`Parcel.dataPosition`, in
    /// values rather than bytes). Failed reads do not move it.
    pub fn data_position(&self) -> usize {
        self.cursor
    }

    /// Moves the read cursor to value index `pos`, clamped to the parcel
    /// length (`Parcel.setDataPosition`). Positions past the end simply
    /// make the next read underflow.
    pub fn set_data_position(&mut self, pos: usize) {
        self.cursor = pos.min(self.values.len());
    }

    /// Values left to read from the cursor to the end.
    pub fn remaining(&self) -> usize {
        self.values.len() - self.cursor
    }

    /// Type name of the next unread value (`"i32"`, `"i64"`, `"string"`,
    /// `"blob"`, `"strong-binder"`), or `None` at the end. Lets a
    /// dispatcher consume optional trailing values without burning a
    /// failed read.
    pub fn peek_type(&self) -> Option<&'static str> {
        self.values.get(self.cursor).map(ParcelValue::type_name)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut p = Parcel::new();
        p.write_i32(1)
            .write_i64(2)
            .write_string("hi")
            .write_blob(100)
            .write_strong_binder(NodeId::new(5));
        assert_eq!(p.len(), 5);
        assert_eq!(p.read_i32().unwrap(), 1);
        assert_eq!(p.read_i64().unwrap(), 2);
        assert_eq!(p.read_string().unwrap(), "hi");
        assert_eq!(p.read_blob().unwrap(), 100);
        assert_eq!(p.read_strong_binder().unwrap(), NodeId::new(5));
        assert_eq!(p.read_i32(), Err(BinderError::ParcelUnderflow));
    }

    #[test]
    fn type_mismatch_reported_without_consuming() {
        let mut p = Parcel::new();
        p.write_string("x");
        assert_eq!(
            p.read_i32(),
            Err(BinderError::ParcelTypeMismatch {
                expected: "i32",
                found: "string"
            })
        );
        // The value is still readable with the right type.
        assert_eq!(p.read_string().unwrap(), "x");
    }

    #[test]
    fn payload_size_model() {
        let mut p = Parcel::new();
        p.write_i32(0).write_string("ab").write_blob(1024);
        // 4 + (4 + 2*2) + (4 + 1024)
        assert_eq!(p.payload_size(), 4 + 8 + 1028);
    }

    #[test]
    fn strong_binders_extracted_in_order() {
        let mut p = Parcel::new();
        p.write_strong_binder(NodeId::new(1))
            .write_i32(9)
            .write_strong_binder(NodeId::new(2));
        assert_eq!(p.strong_binders(), vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn clear_empties_for_reuse_and_shares_written_text() {
        let package: Rc<str> = Rc::from("com.example");
        let mut p = Parcel::new();
        p.write_string(Rc::clone(&package)).write_i32(3);
        assert_eq!(p.read_string().unwrap(), "com.example");
        assert_eq!(Rc::strong_count(&package), 2, "written without a copy");
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.data_position(), 0);
        assert_eq!(Rc::strong_count(&package), 1);
        p.write_string("android");
        assert_eq!(p.read_string().unwrap(), "android");
    }

    #[test]
    fn rewind_allows_rereading() {
        let mut p = Parcel::new();
        p.write_i32(7);
        assert_eq!(p.read_i32().unwrap(), 7);
        p.rewind();
        assert_eq!(p.read_i32().unwrap(), 7);
    }

    #[test]
    fn partial_read_failure_is_cursor_stable() {
        // A dispatcher that replays the same parcel must fail at the same
        // position with the same error every time — the cursor may not
        // drift across failed reads.
        let mut p = Parcel::new();
        p.write_string("pkg").write_i32(9);
        assert_eq!(p.read_string().unwrap(), "pkg");
        let pos = p.data_position();
        assert_eq!(pos, 1);
        // Mismatched read: cursor unchanged, repeatable.
        for _ in 0..3 {
            assert!(matches!(
                p.read_strong_binder(),
                Err(BinderError::ParcelTypeMismatch { .. })
            ));
            assert_eq!(p.data_position(), pos);
        }
        // The value is still there for the correct type.
        assert_eq!(p.read_i32().unwrap(), 9);
        // Underflow: cursor pinned at the end, repeatable.
        for _ in 0..3 {
            assert_eq!(p.read_i32(), Err(BinderError::ParcelUnderflow));
            assert_eq!(p.data_position(), 2);
        }
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn data_position_round_trips() {
        let mut p = Parcel::new();
        p.write_i32(1).write_i32(2).write_i32(3);
        assert_eq!(p.data_position(), 0);
        p.set_data_position(2);
        assert_eq!(p.read_i32().unwrap(), 3);
        // Clamped past the end: next read underflows instead of panicking.
        p.set_data_position(99);
        assert_eq!(p.data_position(), 3);
        assert_eq!(p.read_i32(), Err(BinderError::ParcelUnderflow));
        p.rewind();
        assert_eq!(p.remaining(), 3);
        assert_eq!(p.peek_type(), Some("i32"));
    }

    #[test]
    fn peek_type_does_not_consume() {
        let mut p = Parcel::new();
        p.write_blob(16);
        assert_eq!(p.peek_type(), Some("blob"));
        assert_eq!(p.data_position(), 0);
        assert_eq!(p.read_blob().unwrap(), 16);
        assert_eq!(p.peek_type(), None);
    }
}
