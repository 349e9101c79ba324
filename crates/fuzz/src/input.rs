//! The fuzzer's input model: a parcel recipe plus a transaction code.
//!
//! An input is **byte-replayable**: executing the same [`FuzzInput`]
//! against a device booted at the same seed produces the same outcomes,
//! because every op writes deterministic parcel values and a failed
//! `read_*` leaves the cursor at the failing position (the parcel's
//! cursor determinism contract).

use jgre_sim::SimRng;
use serde::Serialize;

/// One value the client writes into the transaction parcel.
///
/// The well-formed wire format the framework marshals is
/// `[Package, CallbackBinder]` (methods that take no callback simply
/// never read the second slot — unread trailing data is ignored, as in
/// `android.os.Parcel`). Every other op is a deviation the hardened
/// dispatch must reject with a typed reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ParcelOp {
    /// The caller's real package name.
    Package,
    /// The `"android"` package string — the Code-Snippet 3 spoof.
    SpoofedPackage,
    /// A freshly created, live callback binder.
    CallbackBinder,
    /// A `NodeId` the driver never handed out (stale/foreign handle).
    StaleBinder,
    /// A 32-bit integer where something else may belong (type confusion).
    JunkI32,
    /// A 64-bit integer (type confusion / junk padding).
    JunkI64,
    /// An opaque payload blob of the given size in bytes.
    Blob(usize),
}

impl ParcelOp {
    /// Stable label used in minimized-repro JSON.
    pub fn label(self) -> String {
        match self {
            ParcelOp::Package => "package".to_owned(),
            ParcelOp::SpoofedPackage => "spoofed-package".to_owned(),
            ParcelOp::CallbackBinder => "callback-binder".to_owned(),
            ParcelOp::StaleBinder => "stale-binder".to_owned(),
            ParcelOp::JunkI32 => "i32".to_owned(),
            ParcelOp::JunkI64 => "i64".to_owned(),
            ParcelOp::Blob(size) => format!("blob:{size}"),
        }
    }
}

/// A replayable fuzz input: which transaction to send, what to put in
/// the parcel, and how many times to send it.
///
/// `clone_from` reuses the target's recipe storage, so a mutation loop
/// can copy corpus entries into one working input without allocating.
#[derive(Debug, PartialEq, Eq, Serialize)]
pub struct FuzzInput {
    /// Raw transaction code (1-based; out-of-table codes are themselves
    /// a mutation).
    pub code: u32,
    /// Parcel recipe, written front to back.
    pub ops: Vec<ParcelOp>,
    /// How many times the transaction is sent back to back.
    pub calls: u32,
}

impl Clone for FuzzInput {
    fn clone(&self) -> Self {
        Self {
            code: self.code,
            ops: self.ops.clone(),
            calls: self.calls,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.code = source.code;
        self.ops.clone_from(&source.ops);
        self.calls = source.calls;
    }
}

/// The wire format the framework marshals: package, then callback.
const WELL_FORMED: [ParcelOp; 2] = [ParcelOp::Package, ParcelOp::CallbackBinder];

impl FuzzInput {
    /// The well-formed input for a method: the exact shape the framework
    /// itself marshals.
    pub fn well_formed(code: u32) -> Self {
        Self {
            code,
            ops: WELL_FORMED.to_vec(),
            calls: 1,
        }
    }

    /// Turns this input into [`well_formed`](Self::well_formed)`(code)`
    /// in place, reusing its recipe storage.
    pub fn set_well_formed(&mut self, code: u32) {
        self.code = code;
        self.ops.clear();
        self.ops.extend_from_slice(&WELL_FORMED);
        self.calls = 1;
    }

    /// The spoofed variant: same shape, but the package string claims to
    /// be `"android"`.
    pub fn spoofed(code: u32) -> Self {
        Self {
            code,
            ops: vec![ParcelOp::SpoofedPackage, ParcelOp::CallbackBinder],
            calls: 1,
        }
    }

    /// Applies one random structural mutation, drawn from `rng`.
    ///
    /// The menu covers the malformed shapes the hardened dispatch must
    /// survive: wrong arity (drop an op), type confusion (swap an op for
    /// an integer), stale/foreign binders, oversized blobs, truncation
    /// (drop the tail), junk padding, spoofed package strings, and
    /// out-of-table transaction codes. `method_count` bounds the valid
    /// code range so the unknown-code mutation lands just outside it.
    pub fn mutate(&mut self, rng: &mut SimRng, method_count: u32) {
        match rng.range(0..=7u32) {
            0 if !self.ops.is_empty() => {
                // Wrong arity: drop a random op.
                let idx: usize = rng.range(0..self.ops.len());
                self.ops.remove(idx);
            }
            1 if !self.ops.is_empty() => {
                // Type confusion: overwrite a random op with an integer.
                let idx: usize = rng.range(0..self.ops.len());
                self.ops[idx] = if rng.chance(0.5) {
                    ParcelOp::JunkI32
                } else {
                    ParcelOp::JunkI64
                };
            }
            2 => {
                // Stale/foreign binder in place of the live callback.
                match self
                    .ops
                    .iter_mut()
                    .find(|op| **op == ParcelOp::CallbackBinder)
                {
                    Some(op) => *op = ParcelOp::StaleBinder,
                    None => self.ops.push(ParcelOp::StaleBinder),
                }
            }
            3 => {
                // Oversized payload: blow the 1 MB transaction buffer.
                self.ops.push(ParcelOp::Blob(2 * 1024 * 1024));
            }
            4 => {
                // Truncation: drop the tail of the recipe.
                let keep: usize = rng.range(0..=self.ops.len());
                self.ops.truncate(keep);
            }
            5 => {
                // Unknown transaction code, just past the method table
                // (or code 0, below FIRST_CALL_TRANSACTION).
                self.code = if rng.chance(0.5) {
                    0
                } else {
                    method_count + 1 + rng.range(0..=2u32)
                };
            }
            6 => {
                // Package spoof (Code-Snippet 3).
                match self.ops.iter_mut().find(|op| **op == ParcelOp::Package) {
                    Some(op) => *op = ParcelOp::SpoofedPackage,
                    None => self.ops.insert(0, ParcelOp::SpoofedPackage),
                }
            }
            _ => {
                // Junk padding at a random position.
                let idx: usize = rng.range(0..=self.ops.len());
                let op = if rng.chance(0.5) {
                    ParcelOp::JunkI32
                } else {
                    ParcelOp::Blob(rng.range(0..=4096usize))
                };
                self.ops.insert(idx, op);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let mutate_all = |seed: u64| {
            let mut rng = SimRng::seed(seed);
            let mut input = FuzzInput::well_formed(1);
            for _ in 0..16 {
                input.mutate(&mut rng, 8);
            }
            input
        };
        assert_eq!(mutate_all(7), mutate_all(7));
        assert_ne!(mutate_all(7), mutate_all(8));
    }

    #[test]
    fn in_place_rewrites_match_fresh_inputs() {
        let mut rng = SimRng::seed(3);
        let mut mutated = FuzzInput::well_formed(2);
        for _ in 0..6 {
            mutated.mutate(&mut rng, 8);
        }
        let mut input = FuzzInput::spoofed(5);
        input.clone_from(&mutated);
        assert_eq!(input, mutated);
        input.set_well_formed(4);
        assert_eq!(input, FuzzInput::well_formed(4));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ParcelOp::Package.label(), "package");
        assert_eq!(ParcelOp::Blob(42).label(), "blob:42");
    }
}
