//! A synthetic AOSP 6.0.1 model for the JGRE reproduction.
//!
//! The paper analyses the real Android Open Source Project tree with SOOT,
//! PScout, and hand-built extractors. That tree is not available to a pure
//! Rust build, so this crate supplies two connected substitutes:
//!
//! * [`spec`] — the **ground truth**: a declarative catalog of all 104
//!   system services of Android 6.0.1, every IPC method they expose, each
//!   method's permission, server/helper-side protection, and how its
//!   handler treats received binder objects (the [`JgrBehavior`] that
//!   decides whether global references leak). The vulnerable entries are
//!   transcribed from the paper's Tables I–V; the innocent bulk is
//!   generated so the catalog reaches the paper's scale (~2000 IPC
//!   methods, 88 prebuilt apps, 1000 third-party apps).
//! * [`model`] — a **code model**: classes, methods, call edges, JNI
//!   registrations, and parameter-usage facts *synthesised from the spec*,
//!   statistically shaped like the AOSP framework. The `jgre-analysis`
//!   crate runs the paper's four-step pipeline against this model and must
//!   *re-derive* the ground truth (32 services / 54 interfaces, 147 native
//!   paths with 67 init-only, …) by graph analysis — nothing in the
//!   analysis reads the spec's vulnerability flags directly.
//!
//! # Example
//!
//! ```
//! use jgre_corpus::spec::AospSpec;
//!
//! let aosp = AospSpec::android_6_0_1();
//! assert_eq!(aosp.services.len(), 104);
//! assert_eq!(aosp.vulnerable_service_interfaces().count(), 54);
//! assert_eq!(aosp.prebuilt_apps.len(), 88);
//! ```

pub mod body;
pub mod model;
pub mod spec;

pub use body::{
    synthesize_body, AllocSite, BodyStmt, BranchKind, FieldKind, MethodBody, Place, Var,
};
pub use model::{
    error_path_cases, service_class_name, ClassDef, CodeModel, JniRegistration, MethodDef,
    MethodId, NativeFunction, NativeFunctionId, Origin, ParamUsage, ERROR_PATH_CLASS,
};
pub use spec::{
    AospSpec, AppSpec, CostParams, Flaw, JgrBehavior, MethodSpec, Permission, Protection,
    ProtectionLevel, ServiceSpec, ThirdPartyAppSpec, JGR_CAP,
};

/// FNV-1a over a name: derives stable per-name variety (cost parameters,
/// chain depths, catalog order) without an RNG. Not a checksum — the
/// record formats use `jgre_sim::record::checksum` — and changing it
/// would move every catalog-derived artifact.
pub(crate) fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
