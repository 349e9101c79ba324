//! Simulated Android 6.0.1 framework for the JGRE reproduction.
//!
//! [`System`] assembles the full victim environment the paper attacks:
//!
//! * a **process table** with a `system_server` whose single ART runtime is
//!   shared by every Java system service thread — the reason one vulnerable
//!   interface anywhere can soft-reboot the whole device;
//! * the **service catalog** from [`jgre_corpus::spec`]: all 104 services,
//!   their IPC methods, execution-cost models, and how each handler treats
//!   received binders (retain / transient / replace / thread-create);
//! * the **permission model** (none / normal / dangerous / signature)
//!   checked at the Binder boundary;
//! * **helper classes** (`WifiManager`, `ClipboardManager`, …) enforcing
//!   client-side thresholds that direct Binder calls bypass — Table II's
//!   flaw;
//! * **server-side per-process limits** including the `enqueueToast`
//!   package-name spoof — Table III's flaw;
//! * a **low-memory-killer** capping concurrently running apps, which is
//!   what keeps the benign baseline of Figure 4 in its narrow band.
//!
//! # Example: the wifi-lock exploit of Code-Snippet 2
//!
//! ```
//! use jgre_framework::{CallOptions, System};
//! use jgre_corpus::spec::Permission;
//!
//! let mut system = System::boot(7);
//! let mal = system.install_app("com.evil.app", [Permission::WakeLock]);
//! // Direct Binder calls skip WifiManager's MAX_ACTIVE_LOCKS check:
//! for _ in 0..100 {
//!     let outcome = system
//!         .call_service(mal, "wifi", "acquireWifiLock", CallOptions::default())
//!         .unwrap();
//!     assert!(outcome.status.is_completed());
//! }
//! assert!(system.system_server_jgr_count() >= 100);
//! ```

mod error;
mod lmk;
mod process;
mod system;

pub use error::FrameworkError;
pub use lmk::{
    select_lmk_victim, LmkCandidate, LmkConfig, OOM_SCORE_BACKGROUND, OOM_SCORE_FOREGROUND,
};
pub use process::{Process, ProcessTable};
pub use system::{
    CallOptions, CallOutcome, CallReject, CallStatus, KillOutcome, ServiceInfo, Supervisor,
    SupervisorConfig, System, SystemConfig, SystemImage, FIRST_CALL_TRANSACTION,
};

/// Number of processes running on the stock image before any third-party
/// app is installed (Figure 4 reports 382).
pub const STOCK_PROCESS_COUNT: usize = 382;
