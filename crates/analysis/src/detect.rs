//! Step 3's output shape (§III-C): the risky interfaces that survive the
//! four sift rules and the permission filter, and the sifted candidates
//! with the rule that cleared each. [`DataflowDetector`] produces it.
//! Rows borrow their [`IpcMethod`] from the extractor's output, which
//! borrows its names from the code model, so no row copies a string.
//!
//! [`DataflowDetector`]: crate::DataflowDetector

use jgre_corpus::MethodId;
use serde::Serialize;

use crate::IpcMethod;

/// Why a risky candidate was sifted out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum SiftReason {
    /// Rule 1: only `Thread.nativeCreate` — the native side releases the
    /// reference immediately.
    ThreadCreateOnly,
    /// Rules 2–3: the binder parameter stays local / is only a read-only
    /// key, so GC revokes the reference after the call.
    TransientUsage,
    /// Rule 4: assigned to a single member field; repeat calls replace the
    /// previous reference.
    ReplacedMember,
    /// Permission filter: guarded by a signature-level permission no
    /// third-party app can hold.
    SignaturePermission,
    /// No JGR entry in the call graph and no binder parameters at all.
    NoJgrReach,
}

/// A risky interface that survived the sift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiskyInterface<'a> {
    /// The IPC method.
    pub ipc: &'a IpcMethod<'a>,
    /// JGR entries reachable in its call graph.
    pub reached_entries: Vec<MethodId>,
    /// Whether the risk came (at least in part) from binder-typed
    /// parameters (the `readStrongBinder` special case of §III-C.2).
    pub via_binder_params: bool,
    /// Whether the reachability needed a Handler-indirect edge (the
    /// PScout pass).
    pub via_handler_edge: bool,
}

/// Full detector output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorOutput<'a> {
    /// Candidates that survived all sift rules and the permission filter.
    pub risky: Vec<RiskyInterface<'a>>,
    /// Sifted candidates with the rule that cleared them.
    pub sifted: Vec<(&'a IpcMethod<'a>, SiftReason)>,
}
