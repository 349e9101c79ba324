//! A simulated ART runtime faithful to the mechanisms the JGRE paper
//! (Gu et al., DSN 2017) attacks and defends.
//!
//! The real exhaustion target is `art/runtime/indirect_reference_table.cc`
//! plus the hard-coded global-reference cap in `art/runtime/java_vm_ext.cc`
//! (51200 on Android 6.0.1). This crate ports those semantics:
//!
//! * [`Heap`] — a simulated Java heap whose objects carry *finalizers*; a
//!   finalizer is how a garbage-collected `BinderProxy` ends up deleting the
//!   JNI global reference that was pinning its native peer.
//! * [`IndirectRefTable`] — serial-numbered slots, hole recycling, and
//!   segment (cookie) push/pop exactly as ART's local reference frames do.
//! * [`Runtime`] — one per simulated process: a heap, a global-reference
//!   table capped at [`MAX_GLOBAL_REFS`], a weak-global table, per-thread
//!   JNI environments, a garbage collector, and the *abort* behaviour that
//!   makes JGRE a denial-of-service: exceeding the cap kills the runtime
//!   (and, for `system_server`, soft-reboots the device).
//! * [`JgrObserver`] — the hook the JGRE Defender (crate `jgre-defense`)
//!   uses to watch global-reference creation and deletion per process.
//!
//! # Example
//!
//! ```
//! use jgre_art::{Runtime, RuntimeState, MAX_GLOBAL_REFS};
//! use jgre_sim::{Pid, SimClock, TraceSink};
//!
//! let mut rt = Runtime::new(Pid::new(412), SimClock::new(), TraceSink::disabled());
//! let obj = rt.alloc("android.os.BinderProxy");
//! let gref = rt.add_global(obj)?;
//! assert_eq!(rt.global_count(), 1);
//! rt.delete_global(gref)?;
//! assert_eq!(rt.global_count(), 0);
//! assert_eq!(rt.state(), RuntimeState::Running);
//! assert_eq!(MAX_GLOBAL_REFS, 51_200);
//! # Ok::<(), jgre_art::ArtError>(())
//! ```

mod error;
mod heap;
mod irt;
mod observer;
mod runtime;

pub use error::ArtError;
pub use heap::{ClassName, Finalizer, Heap, ObjRef};
pub use irt::{IndirectRef, IndirectRefTable, IrtCookie, RefKind};
pub use observer::{JgrEvent, JgrEventKind, JgrObserver, ObserverRegistry};
pub use runtime::{EnvId, GcStats, Runtime, RuntimeState, RuntimeStats};

/// Hard cap on JNI global references per runtime, hard-coded in AOSP 6.0.1's
/// `art/runtime/java_vm_ext.cc` (`kGlobalsMax`). Exceeding it aborts the
/// runtime — the mechanism every attack in the paper exploits.
pub const MAX_GLOBAL_REFS: usize = 51_200;

/// Cap on weak global references (`kWeakGlobalsMax` in AOSP 6.0.1).
pub const MAX_WEAK_GLOBAL_REFS: usize = 51_200;

/// Cap on local references per JNI environment (`kLocalsMax`).
pub const MAX_LOCAL_REFS: usize = 512;
