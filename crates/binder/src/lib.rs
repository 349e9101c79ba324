//! Simulated Binder IPC for the JGRE reproduction.
//!
//! Every attack in the paper travels through Binder: a malicious app gets a
//! handle to a system service from the service manager, then fires
//! transactions whose unmarshalling creates JNI global references in the
//! *receiving* process (`Parcel.readStrongBinder()` →
//! `android::ibinderForJavaObject` → `NewGlobalRef`). The defense reads the
//! kernel driver's transaction log. This crate models exactly those parts:
//!
//! * [`Parcel`] — typed payloads including strong binders, with a byte-size
//!   model used by the Figure 10 overhead experiment.
//! * [`BinderDriver`] — node registry, transaction routing/logging
//!   (the `/proc/jgre_ipc_log` analog of §V-B), death notification links,
//!   and a latency model with an optional defense-recording overhead.
//! * [`ServiceManager`] — `addService`/`getService` by name, the discovery
//!   step of every exploit (`ServiceManager.getService("wifi")`).
//! * [`materialize_strong_binder`] — the unmarshalling step that turns an
//!   incoming node into a proxy object plus a global reference in the
//!   receiving runtime; this is the JGR-entry point the static analysis
//!   hunts for.
//!
//! # Example
//!
//! ```
//! use jgre_binder::{BinderDriver, Parcel, ServiceManager};
//! use jgre_sim::{Pid, SimClock, TraceSink, Uid};
//!
//! let clock = SimClock::new();
//! let mut driver = BinderDriver::new(clock.clone(), TraceSink::disabled());
//! let mut sm = ServiceManager::new();
//!
//! // system_server publishes the clipboard service.
//! let node = driver.create_node(Pid::new(412), "clipboard");
//! sm.add_service("clipboard", node)?;
//!
//! // An app finds it and sends a transaction.
//! let found = sm.get_service("clipboard").unwrap();
//! let mut parcel = Parcel::new();
//! parcel.write_string("listener registration");
//! driver.record_transaction(
//!     Pid::new(9001), Uid::new(10061), found,
//!     "IClipboard", "addPrimaryClipChangedListener", &parcel)?;
//! assert_eq!(driver.log().len(), 1);
//! assert_eq!(driver.log()[0].to_pid, Pid::new(412));
//! # Ok::<(), jgre_binder::BinderError>(())
//! ```

mod driver;
mod error;
mod latency;
mod parcel;
mod service_manager;
mod strong_binder;

pub use driver::{
    BinderDriver, DeathLink, DeathNotification, IpcRecord, NodeId, TRANSACTION_BUFFER_LIMIT,
};
pub use error::BinderError;
pub use latency::LatencyModel;
pub use parcel::{Parcel, ParcelValue};
pub use service_manager::ServiceManager;
pub use strong_binder::{materialize_strong_binder, ReceivedBinder};
