//! The paper's four-step JGRE analysis methodology (§III, Figure 1).
//!
//! The pipeline runs against the synthetic AOSP code model from
//! [`jgre_corpus`] and re-derives every §IV statistic by graph analysis —
//! it never reads the spec's vulnerability flags:
//!
//! 1. [`IpcMethodExtractor`] — finds every IPC method: Java system
//!    services registered through `ServiceManager.addService` /
//!    `publishBinderService`, the 5 native services registered through the
//!    C++ `ServiceManager::addService`, and app services exported through
//!    abstract base classes (`asBinder()` interfaces).
//! 2. [`JgrEntryExtractor`] — walks the native call graph to
//!    `IndirectReferenceTable::Add` (147 paths; 67 init-only, filtered),
//!    then lifts the surviving JNI entry points to Java methods through
//!    the `registerNativeMethods` data.
//! 3. [`DataflowDetector`] — tracks every JGR allocation site to its
//!    release or escape over a CFG synthesized per method from the
//!    model's facts ([`ir`]), interprocedurally and path-sensitively,
//!    and derives the risky methods (reachable JGR entry, or
//!    Binder/IInterface parameters — the `readStrongBinder` special
//!    case), the four sift rules, and the PScout-style permission filter
//!    (signature-level permissions are unreachable for third-party apps)
//!    as verdicts.
//! 4. [`JgreVerifier`] — dynamically tests each risky interface against
//!    the simulated device: fire IPC requests, trigger GC periodically
//!    (the DDMS step), and confirm whether the JGR footprint grows without
//!    bound.
//!
//! # Example
//!
//! ```
//! use jgre_analysis::Pipeline;
//! use jgre_corpus::{spec::AospSpec, CodeModel};
//!
//! let spec = AospSpec::android_6_0_1();
//! let model = CodeModel::synthesize(&spec);
//! let report = Pipeline::new(model).run_static();
//! assert_eq!(report.native_paths.total_paths, 147);
//! assert_eq!(report.native_paths.init_only_paths, 67);
//! ```

// The workspace warns on missing docs; the public analysis surface is
// the reference implementation of the paper's method, so escalate.
#![deny(missing_docs)]

pub mod cache;
mod codegen;
pub mod dataflow;
mod detect;
pub mod diagnostics;
mod extract_ipc;
mod extract_jgr;
pub mod ir;
pub mod leakcheck;
mod names;
mod pipeline;
mod report;
mod verify;
pub mod witness;

pub use cache::{RejectReason, CACHE_FILE, SCHEMA_VERSION};
pub use codegen::{generate_test_case, GeneratedTestCase};
pub use dataflow::{condense_call_graph, Condensation, ForwardAnalysis, Solver};
pub use detect::{DetectorOutput, RiskyInterface, SiftReason};
pub use diagnostics::{predicted_leaks, AccuracyReport, Diagnostic, LintReport, RuleId, Severity};
pub use extract_ipc::{IpcMethod, IpcMethodExtractor, ServiceKind};
pub use extract_jgr::{JgrEntryExtractor, JgrEntrySets, NativePathAnalysis};
pub use ir::{
    corpus_fingerprint, method_fact_fingerprint, method_fact_fingerprints, BasicBlock, BlockId,
    Cfg, Fingerprint, Stmt, Terminator,
};
pub use leakcheck::{
    intra_solver_cost, AnalysisOptions, DataflowDetector, DataflowOutput, LeakChecker, LeakVerdict,
    MethodSummary, PredSet, Retention, SiteSummary, SolverStats, VerdictRow,
};
pub use names::NameIndex;
pub use pipeline::Pipeline;
pub use report::{AnalysisReport, ConfirmedVulnerability, VerificationStatus};
pub use verify::{JgreVerifier, VerifierConfig};
pub use witness::{MinimisedFlows, Witness, WitnessStep};
