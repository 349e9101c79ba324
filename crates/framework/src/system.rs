//! The assembled device: boot, IPC dispatch, protections, death, reboot.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use jgre_art::{ArtError, JgrObserver};
use jgre_binder::{
    materialize_strong_binder, BinderDriver, BinderError, IpcMethod, LogName, Parcel,
    ReceivedBinder,
};
use jgre_corpus::spec::{
    AospSpec, Flaw, JgrBehavior, MethodSpec, Permission, Protection, ProtectionLevel, ServiceSpec,
};
use jgre_sim::{
    FaultLayer, FaultPlan, Pid, SimClock, SimDuration, SimRng, SimTime, Tid, TraceSink, Uid,
};
use serde::Serialize;

use crate::{
    select_lmk_victim, FrameworkError, LmkCandidate, LmkConfig, ProcessTable, OOM_SCORE_BACKGROUND,
    OOM_SCORE_FOREGROUND, STOCK_PROCESS_COUNT,
};

/// Knobs for building a [`System`].
#[derive(Debug, Clone, Default)]
pub struct SystemConfig {
    /// Experiment seed (drives jitter and workload randomness).
    pub seed: u64,
    /// LMK settings.
    pub lmk: LmkConfig,
    /// Whether the trace sink keeps records (disable for long benches).
    pub tracing: bool,
    /// Override the JGR capacity of every runtime (tests use small caps to
    /// reach aborts quickly). `None` = the real 51200.
    pub jgr_capacity: Option<usize>,
    /// Persistent global references the stock framework itself holds in
    /// `system_server` (camera/input/window internals, persistent-process
    /// callbacks, …). The paper's Figure 4 observes 1000–3000 standing
    /// entries on an otherwise idle device; tests that assert exact
    /// attack-attributable counts leave this at 0.
    pub stock_jgr: usize,
    /// Fault-injection plan for the chaos experiments. The default
    /// ([`FaultPlan::none`]) consumes no randomness, so faultless runs are
    /// byte-identical to builds that predate the fault layer.
    pub faults: FaultPlan,
}

/// What actually happened when the framework was asked to kill an app —
/// under fault injection, `am force-stop` is no longer guaranteed to work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum KillOutcome {
    /// The process died and its retained JGR entries were released.
    Killed,
    /// The app had no live process; nothing to do.
    NotRunning,
    /// An injected fault made the kill fail: the process (and every JGR
    /// entry it pins) survives.
    Failed,
    /// The kill landed and its entries were released, but the app
    /// immediately respawned with a fresh (empty) process.
    Respawned,
}

impl KillOutcome {
    /// Whether the victim's retained JGR entries were actually released.
    pub fn released_entries(self) -> bool {
        matches!(self, KillOutcome::Killed | KillOutcome::Respawned)
    }
}

/// How a call is issued.
#[derive(Debug, Clone, Default)]
pub struct CallOptions {
    /// Route through the service-helper class, honouring its client-side
    /// threshold. Benign apps do this; malicious apps never do.
    pub via_helper: bool,
    /// Pass `"android"` as the caller package name — the
    /// `enqueueToast` spoof of Code-Snippet 3.
    pub spoof_system_package: bool,
    /// Extra opaque payload bytes (the Figure 10 sweep).
    pub payload_extra_bytes: usize,
    /// Which code execution path the handler takes (§VI: an attacker may
    /// rotate between a method's paths to smear its timing signature;
    /// each path has its own `Delay`). 0 is the common path.
    pub path_variant: u8,
}

impl CallOptions {
    /// Options for a benign call through the documented helper API.
    pub fn benign() -> Self {
        Self {
            via_helper: true,
            ..Self::default()
        }
    }
}

/// Why the hardened dispatch refused a malformed transaction before its
/// handler ran — the typed fail-stop vocabulary of the fuzz-grade entry
/// points. Every reason maps to a per-reason counter folded into the
/// Binder driver's transaction ledger
/// ([`reject_counts`](jgre_binder::BinderDriver::reject_counts)), so
/// malformed traffic is accounted for instead of panicking the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum CallReject {
    /// The transaction code addressed no method in the service's table
    /// (`onTransact` returned `false`).
    UnknownCode,
    /// The parcel ended before a required argument — wrong arity or a
    /// truncated payload.
    Underflow,
    /// A required argument carried the wrong parcel type (type-confused
    /// read).
    TypeConfusion,
    /// The strong binder referred to a dead or never-created node — a
    /// stale or foreign handle smuggled into the parcel.
    StaleBinder,
    /// A method that requires a callback binder was dispatched without
    /// one (structurally unreachable from the public entry points; kept
    /// as a typed backstop so no code path is a panic).
    MissingBinder,
    /// The payload exceeded the 1 MB Binder transaction buffer.
    OversizedPayload,
}

impl CallReject {
    /// Stable label of this rejection reason — the key of the driver's
    /// per-reason ledger and of the fuzz report's outcome histogram.
    pub fn reason(self) -> &'static str {
        match self {
            CallReject::UnknownCode => "unknown-code",
            CallReject::Underflow => "parcel-underflow",
            CallReject::TypeConfusion => "parcel-type-mismatch",
            CallReject::StaleBinder => "stale-binder",
            CallReject::MissingBinder => "missing-binder",
            CallReject::OversizedPayload => "oversized-payload",
        }
    }

    /// Maps a `Parcel::read_*` failure onto its rejection reason.
    fn from_parcel_error(e: &BinderError) -> Self {
        match e {
            BinderError::ParcelTypeMismatch { .. } => CallReject::TypeConfusion,
            // `read_*` only fails with underflow or type mismatch; the
            // arm below also absorbs any future read error soundly.
            _ => CallReject::Underflow,
        }
    }
}

/// Terminal status of a dispatched call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CallStatus {
    /// Handler ran to completion.
    Completed,
    /// The service's per-process limit rejected the request (Table III
    /// working as intended).
    RejectedByServerLimit,
    /// The hardened dispatch refused a malformed transaction before the
    /// handler ran: typed fail-stop, a short constant cost, no JGR
    /// effect — what `jgre fuzz` inputs hit instead of a panic.
    Rejected(CallReject),
}

impl CallStatus {
    /// Whether the handler ran.
    pub fn is_completed(self) -> bool {
        matches!(self, CallStatus::Completed)
    }

    /// The fail-stop reason, when the dispatch rejected the parcel.
    pub fn reject(self) -> Option<CallReject> {
        match self {
            CallStatus::Rejected(r) => Some(r),
            _ => None,
        }
    }
}

/// The first valid raw transaction code (`IBinder.FIRST_CALL_TRANSACTION`):
/// [`System::transact_raw`] maps code `FIRST_CALL_TRANSACTION + i` to the
/// service's `i`-th method in AIDL declaration order.
pub const FIRST_CALL_TRANSACTION: u32 = 1;

/// Result of one dispatched IPC call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CallOutcome {
    /// Completion status.
    pub status: CallStatus,
    /// When the transaction entered the Binder driver.
    pub sent_at: SimTime,
    /// Handler execution time — the quantity Figures 5 and 6 plot.
    pub exec_time: SimDuration,
    /// Global references created in the host during this call.
    pub jgr_created: usize,
    /// Host JGR table size after the call.
    pub host_jgr_count: usize,
    /// Whether this call overflowed the host's table and aborted it
    /// (for `system_server`: the device soft-rebooted).
    pub host_aborted: bool,
}

/// Public snapshot of a registered service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServiceInfo {
    /// Registered name.
    pub name: String,
    /// AIDL interface.
    pub interface: String,
    /// Hosting process.
    pub host: Pid,
    /// Whether implemented in native code.
    pub native: bool,
}

#[derive(Debug)]
struct InstalledApp {
    /// Shared, so the framework's own marshal writes it without a copy.
    package: Rc<str>,
    granted: BTreeSet<Permission>,
    pid: Option<Pid>,
}

#[derive(Debug, Default)]
struct MethodState {
    /// Retained proxies per calling pid (the leak).
    retained: BTreeMap<Pid, Vec<ReceivedBinder>>,
    /// Single-member slot per caller (sift rule 4 pattern).
    single: BTreeMap<Pid, ReceivedBinder>,
    /// Total retained entries across callers (drives the Figure 5 cost
    /// growth).
    total_retained: usize,
    /// Lifetime completed calls.
    calls: u64,
}

/// Where a registered service's [`ServiceSpec`] lives in the device's
/// shared [`AospSpec`]: a system service, or a service a prebuilt app
/// exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SpecSlot {
    System(usize),
    Prebuilt { app: usize, service: usize },
}

impl SpecSlot {
    fn resolve(self, spec: &AospSpec) -> &ServiceSpec {
        match self {
            SpecSlot::System(index) => &spec.services[index],
            SpecSlot::Prebuilt { app, service } => &spec.prebuilt_apps[app].services[service],
        }
    }
}

/// Per-device state of a registered service. The name, interface and
/// method table (in AIDL declaration order, the positional
/// transaction-code table `transact_raw` indexes) are read in place from
/// the shared spec through `slot`; only what a boot creates or a call
/// mutates lives here.
#[derive(Debug)]
struct ServiceState {
    slot: SpecSlot,
    host: Pid,
    node: jgre_binder::NodeId,
    /// Per-method state indexed by the method's position in the AIDL
    /// table; empty until the service's first dispatch, then one entry
    /// per method.
    per_method: Vec<MethodState>,
}

impl ServiceState {
    /// The state of the method at `position`, allocating the table on
    /// the service's first dispatch.
    fn method_mut(&mut self, position: usize, method_count: usize) -> &mut MethodState {
        if self.per_method.is_empty() {
            self.per_method
                .resize_with(method_count, MethodState::default);
        }
        &mut self.per_method[position]
    }

    /// The state of the method at `position`, if the service was ever
    /// dispatched to.
    fn method(&self, position: usize) -> Option<&MethodState> {
        self.per_method.get(position)
    }
}

/// The target the last by-name entry point resolved: an index into the
/// service directory and a position in that service's AIDL method table.
/// It is a guess, never trusted: a lookup takes it only when the names
/// the shared spec stores there equal the requested ones, so a service
/// that shifted, left the directory or was registered again just misses,
/// and nothing that changes the directory has to reset it. An attack
/// loop calls one method over and over, so nearly every call hits.
#[derive(Debug, Default, Clone, Copy)]
struct Hint {
    index: usize,
    position: usize,
}

impl Hint {
    /// The directory index of the service `name`: the hinted one when
    /// the service there bears that name, else the binary search's, which
    /// becomes the hint.
    fn service(&mut self, services: &[ServiceState], spec: &AospSpec, name: &str) -> Option<usize> {
        let hit = services
            .get(self.index)
            .is_some_and(|s| s.slot.resolve(spec).name == name);
        if !hit {
            self.index = find_service(services, spec, name).ok()?;
        }
        Some(self.index)
    }

    /// The position of `method` in `svc`'s method table: the hinted one
    /// when the method there bears that name, else the scan's, which
    /// becomes the hint. `svc` is the service [`service`](Self::service)
    /// just resolved.
    fn method(&mut self, svc: &ServiceSpec, method: &str) -> Option<usize> {
        let hit = svc
            .methods
            .get(self.position)
            .is_some_and(|m| m.name == method);
        if !hit {
            self.position = svc.position(method)?;
        }
        Some(self.position)
    }
}

/// Binary search of the name-sorted service table.
fn find_service(services: &[ServiceState], spec: &AospSpec, name: &str) -> Result<usize, usize> {
    services.binary_search_by(|s| s.slot.resolve(spec).name.as_str().cmp(name))
}

/// A bootable Android image: the [`AospSpec`] every device booted from it
/// reads in place, and the names interned from that spec once — the
/// Binder-log names and the class names of the framework's stock
/// references. Cloning shares both, so a fleet of devices booted from
/// one image resolves each name once. [`System::boot_with_spec`] also
/// takes a bare `Rc<AospSpec>`, which interns the names for that boot
/// alone.
#[derive(Debug, Clone)]
pub struct SystemImage {
    spec: Rc<AospSpec>,
    names: Rc<ImageNames>,
}

impl SystemImage {
    /// Interns the Binder-log names of `spec`.
    pub fn new(spec: Rc<AospSpec>) -> Self {
        let names = ImageNames::of(&spec);
        Self {
            spec,
            names: Rc::new(names),
        }
    }
}

impl From<Rc<AospSpec>> for SystemImage {
    fn from(spec: Rc<AospSpec>) -> Self {
        Self::new(spec)
    }
}

/// The names of an image. The Binder-log names: every service's
/// interface and method names, services in spec-slot order (system
/// services, then each prebuilt app's), back to back in one buffer. A
/// logged name is a [`LogName`] handle to its range, which every
/// [`IpcRecord`](jgre_binder::IpcRecord) clones instead of copying the
/// name, and building the table costs a few allocations, not one per
/// name. Besides them, the names a boot or a call would otherwise
/// format or copy: the spoofed system package and the stock references'
/// class names.
#[derive(Debug)]
struct ImageNames {
    buffer: Rc<str>,
    /// Name `k` is `buffer[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    /// Service `s`'s interface is name `firsts[s]`; its methods, in
    /// transaction-code order, run up to name `firsts[s + 1]`.
    firsts: Vec<usize>,
    /// The service index of each prebuilt app's first service.
    app_offsets: Vec<usize>,
    /// `"android"`, the package the `enqueueToast` spoof claims.
    system_package: Rc<str>,
    /// `framework.internal.Callback{i}` for every stock reference index
    /// a boot from this image has needed so far.
    stock_classes: RefCell<Vec<Rc<str>>>,
}

impl ImageNames {
    fn of(spec: &AospSpec) -> Self {
        let services = || {
            spec.services
                .iter()
                .chain(spec.prebuilt_apps.iter().flat_map(|a| a.services.iter()))
        };
        let (mut bytes, mut names) = (0, 0);
        for svc in services() {
            bytes += svc.interface.len() + svc.methods.iter().map(|m| m.name.len()).sum::<usize>();
            names += 1 + svc.methods.len();
        }
        let mut text = String::with_capacity(bytes);
        let mut starts = Vec::with_capacity(names + 1);
        starts.push(0);
        let mut firsts = Vec::new();
        for svc in services() {
            firsts.push(starts.len() - 1);
            let methods = svc.methods.iter().map(|m| &m.name);
            for name in std::iter::once(&svc.interface).chain(methods) {
                text.push_str(name);
                starts.push(text.len());
            }
        }
        firsts.push(starts.len() - 1);
        let mut app_offsets = Vec::with_capacity(spec.prebuilt_apps.len());
        let mut offset = spec.services.len();
        for app in &spec.prebuilt_apps {
            app_offsets.push(offset);
            offset += app.services.len();
        }
        Self {
            buffer: text.into(),
            starts,
            firsts,
            app_offsets,
            system_package: "android".into(),
            stock_classes: RefCell::default(),
        }
    }

    /// The class names of `count` stock references: distinct, so an
    /// abort-time reference-table dump tells them apart, and rendered
    /// once per image rather than at every boot.
    fn stock_classes(&self, count: usize) -> std::cell::Ref<'_, [Rc<str>]> {
        let mut names = self.stock_classes.borrow_mut();
        for i in names.len()..count {
            names.push(format!("framework.internal.Callback{i}").into());
        }
        drop(names);
        std::cell::Ref::map(self.stock_classes.borrow(), |names| &names[..count])
    }

    fn name(&self, k: usize) -> LogName {
        LogName::new(&self.buffer, self.starts[k]..self.starts[k + 1])
    }

    /// The logged interface of the service at `slot`.
    fn interface(&self, slot: SpecSlot) -> LogName {
        self.name(self.firsts[self.service(slot)])
    }

    /// The logged interface and method of transaction `code` on the
    /// service at `slot`: the method at that position, or
    /// [`IpcMethod::Code`] for a code outside the table.
    fn resolve(&self, slot: SpecSlot, code: u32) -> (LogName, IpcMethod) {
        let s = self.service(slot);
        let (first, end) = (self.firsts[s], self.firsts[s + 1]);
        let method = code
            .checked_sub(FIRST_CALL_TRANSACTION)
            .map(|position| first + 1 + position as usize)
            .filter(|&k| k < end)
            .map_or(IpcMethod::Code(code), |k| IpcMethod::Named(self.name(k)));
        (self.name(first), method)
    }

    fn service(&self, slot: SpecSlot) -> usize {
        match slot {
            SpecSlot::System(index) => index,
            SpecSlot::Prebuilt { app, service } => self.app_offsets[app] + service,
        }
    }
}

/// Arguments of one server-side dispatch, bundled so `call_service` and
/// `transact_raw` hand the shared core the same shape. The service and
/// method are resolved once, by the entry point: `index` into the
/// service table, `position` in the service's AIDL method table.
struct DispatchRequest<'a> {
    caller: Uid,
    caller_pid: Pid,
    index: usize,
    position: usize,
    mspec: &'a MethodSpec,
    host: Pid,
    parcel: &'a mut Parcel,
    sent_at: SimTime,
    via_helper: bool,
    path_variant: u8,
}

/// Whether a method's parcel carries a callback binder after the package.
fn passes_binder(mspec: &MethodSpec) -> bool {
    matches!(
        mspec.jgr,
        JgrBehavior::RetainPerCall { .. } | JgrBehavior::Transient | JgrBehavior::ReplaceSingle
    )
}

/// The simulated device.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct System {
    clock: SimClock,
    trace: TraceSink,
    rng: SimRng,
    driver: BinderDriver,
    spec: Rc<AospSpec>,
    names: Rc<ImageNames>,
    processes: ProcessTable,
    system_server: Pid,
    /// Registered services, sorted by name: the device's service
    /// directory.
    services: Vec<ServiceState>,
    /// Where the last by-name call landed; see [`Hint`].
    hint: Hint,
    apps: BTreeMap<Uid, InstalledApp>,
    next_uid: u32,
    /// Helper-class calls per (caller, service, method position).
    helper_counts: BTreeMap<(Uid, SpecSlot, usize), u32>,
    /// The parcel `call_service` marshals into, reused call after call.
    marshal: Parcel,
    config: SystemConfig,
    soft_reboots: u32,
    jgr_observers: Vec<Rc<dyn JgrObserver>>,
    faults: FaultLayer,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("services", &self.services.len())
            .field("apps", &self.apps.len())
            .field("soft_reboots", &self.soft_reboots)
            .field("now", &self.clock.now())
            .finish()
    }
}

impl System {
    /// Boots a device with the default configuration and the given seed.
    pub fn boot(seed: u64) -> Self {
        Self::boot_with(SystemConfig {
            seed,
            ..SystemConfig::default()
        })
    }

    /// Boots a device with explicit configuration.
    pub fn boot_with(config: SystemConfig) -> Self {
        Self::boot_with_spec(config, Rc::new(AospSpec::android_6_0_1()))
    }

    /// Boots a device from an already-synthesized (possibly shared) image.
    ///
    /// Fleet campaigns boot the same Android image thousands of times per
    /// worker; sharing one immutable [`SystemImage`] across those boots
    /// removes the per-device synthesis and name-interning cost without
    /// changing a single observable behaviour. The device never copies
    /// the spec: its service registry and every dispatch read names,
    /// interfaces and method tables from it in place. A bare
    /// `Rc<AospSpec>` is accepted too and interned for this boot.
    pub fn boot_with_spec(config: SystemConfig, image: impl Into<SystemImage>) -> Self {
        let SystemImage { spec, names } = image.into();
        let clock = SimClock::new();
        let trace = if config.tracing {
            TraceSink::new()
        } else {
            TraceSink::disabled()
        };
        let mut driver = BinderDriver::new(clock.clone(), trace.clone());
        // The fault layer draws from its own stream (decorrelated from the
        // workload RNG inside FaultLayer::new) so enabling faults never
        // shifts benign call timings.
        let faults = FaultLayer::new(config.faults, config.seed);
        driver.set_fault_layer(faults.clone());
        let mut system = Self {
            rng: SimRng::seed(config.seed),
            clock: clock.clone(),
            trace: trace.clone(),
            driver,
            spec,
            names,
            processes: ProcessTable::new(clock, trace),
            system_server: Pid::new(0), // replaced below
            services: Vec::new(),
            hint: Hint::default(),
            apps: BTreeMap::new(),
            next_uid: Uid::FIRST_APPLICATION.raw(),
            helper_counts: BTreeMap::new(),
            marshal: Parcel::new(),
            config,
            soft_reboots: 0,
            jgr_observers: Vec::new(),
            faults,
        };
        system.start_framework();
        system
    }

    /// Spawns a process whose runtime honours the configured JGR capacity
    /// and reports to every registered JGR observer.
    fn spawn_process(&mut self, uid: Uid, name: &str, oom_score_adj: i32) -> Pid {
        let pid = self.processes.spawn(uid, name, oom_score_adj);
        let p = self.processes.get_mut(pid).expect("just spawned");
        if let Some(cap) = self.config.jgr_capacity {
            p.runtime = jgre_art::Runtime::with_global_capacity(
                pid,
                self.clock.clone(),
                self.trace.clone(),
                cap,
            );
        }
        for obs in &self.jgr_observers {
            p.runtime.register_observer(obs.clone());
        }
        pid
    }

    /// Starts the framework from the shared spec: `system_server` with
    /// every system service, then each prebuilt app that exports IPC
    /// services (Bluetooth, PicoTts) in its own process. Boot and
    /// [`soft_reboot`](Self::soft_reboot) both come through here.
    fn start_framework(&mut self) {
        let pid = self.spawn_process(Uid::SYSTEM, "system_server", OOM_SCORE_FOREGROUND - 900);
        self.system_server = pid;
        // The framework's own standing references: allocated once at boot
        // and never released (they belong to system components, not apps).
        let p = self.processes.get_mut(pid).expect("just spawned");
        for class in self.names.stock_classes(self.config.stock_jgr).iter() {
            let obj = p.runtime.alloc(Rc::clone(class));
            p.runtime
                .add_global(obj)
                .expect("stock references fit any sane capacity");
        }
        // Java services share the system_server runtime; the 5 native
        // services have no ART runtime (JGRE does not apply to them) but
        // still appear in the directory.
        let spec = Rc::clone(&self.spec);
        for index in 0..spec.services.len() {
            self.register_service(pid, SpecSlot::System(index));
        }
        let exporting = spec
            .prebuilt_apps
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.services.is_empty());
        for (i, (app, a)) in exporting.enumerate() {
            // Prebuilt system apps live below FIRST_APPLICATION_UID.
            let uid = Uid::new(1_100 + i as u32);
            let pid = self.spawn_process(uid, &a.package, OOM_SCORE_FOREGROUND);
            for service in 0..a.services.len() {
                self.register_service(pid, SpecSlot::Prebuilt { app, service });
            }
        }
    }

    /// Publishes one service of the shared spec from `host`: a Binder
    /// node and empty per-method state, filed in the name-sorted service
    /// table — the device's service directory (`ServiceManager`), which
    /// refuses a second service under a taken name.
    fn register_service(&mut self, host: Pid, slot: SpecSlot) {
        let name = &slot.resolve(&self.spec).name;
        let at = find_service(&self.services, &self.spec, name)
            .expect_err("service names are unique across the image");
        let node = self.driver.create_node(host);
        let state = ServiceState {
            slot,
            host,
            node,
            per_method: Vec::new(),
        };
        self.services.insert(at, state);
    }

    fn service(&self, name: &str) -> Option<&ServiceState> {
        find_service(&self.services, &self.spec, name)
            .ok()
            .map(|i| &self.services[i])
    }

    // -- accessors ---------------------------------------------------------

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The trace sink (enabled only when `SystemConfig::tracing`).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The fault layer the device was booted with (inactive by default).
    /// The defense monitor shares this handle so IPC-log and JGR-log
    /// faults come from one reproducible stream.
    pub fn faults(&self) -> &FaultLayer {
        &self.faults
    }

    /// The Binder driver — the defense reads its transaction log.
    pub fn driver(&self) -> &BinderDriver {
        &self.driver
    }

    /// Mutable driver access (latency model, log pruning).
    pub fn driver_mut(&mut self) -> &mut BinderDriver {
        &mut self.driver
    }

    /// The ground-truth spec the device was booted from.
    pub fn spec(&self) -> &AospSpec {
        &self.spec
    }

    /// The image this device was booted from, to boot the next device
    /// from without interning its names again.
    pub fn image(&self) -> SystemImage {
        SystemImage {
            spec: Rc::clone(&self.spec),
            names: Rc::clone(&self.names),
        }
    }

    /// `system_server`'s pid.
    pub fn system_server_pid(&self) -> Pid {
        self.system_server
    }

    /// Size of `system_server`'s JGR table — Figure 4's left Y axis.
    pub fn system_server_jgr_count(&self) -> usize {
        self.processes
            .get(self.system_server)
            .map(|p| p.runtime.global_count())
            .unwrap_or(0)
    }

    /// JGR table size of an arbitrary process.
    pub fn jgr_count(&self, pid: Pid) -> Option<usize> {
        self.processes.get(pid).map(|p| p.runtime.global_count())
    }

    /// JGR table capacity of a process (51200 unless overridden).
    pub fn jgr_capacity(&self, pid: Pid) -> Option<usize> {
        self.processes.get(pid).map(|p| p.runtime.global_capacity())
    }

    /// Live heap object count of a process (leak diagnostics).
    pub fn heap_live(&self, pid: Pid) -> Option<usize> {
        self.processes.get(pid).map(|p| p.runtime.heap_live())
    }

    /// Times the device soft-rebooted because `system_server` aborted.
    pub fn soft_reboots(&self) -> u32 {
        self.soft_reboots
    }

    /// Total running processes — Figure 4's right Y axis: the ~382 stock
    /// processes plus every live entry in the process table beyond the
    /// boot set (system_server and the prebuilt service apps are part of
    /// the stock count).
    pub fn process_count(&self) -> usize {
        let boot_processes = 1 + self
            .spec
            .prebuilt_apps
            .iter()
            .filter(|a| !a.services.is_empty())
            .count();
        STOCK_PROCESS_COUNT + self.processes.len().saturating_sub(boot_processes)
    }

    /// Number of live third-party app processes.
    pub fn running_app_count(&self) -> usize {
        self.processes.iter().filter(|p| p.uid.is_app()).count()
    }

    /// Info about a registered service.
    pub fn service_info(&self, name: &str) -> Option<ServiceInfo> {
        let svc = self.service(name)?;
        let spec = svc.slot.resolve(&self.spec);
        Some(ServiceInfo {
            name: spec.name.clone(),
            interface: spec.interface.clone(),
            host: svc.host,
            native: spec.native,
        })
    }

    /// The process hosting `service`: [`service_info`](Self::service_info)`.host`
    /// without copying the service's names.
    pub fn service_host(&self, service: &str) -> Option<Pid> {
        self.service(service).map(|s| s.host)
    }

    /// Names of every registered service (104 at boot, plus the app
    /// services).
    pub fn service_names(&self) -> Vec<String> {
        self.services
            .iter()
            .map(|s| s.slot.resolve(&self.spec).name.clone())
            .collect()
    }

    /// The raw transaction code of `method` on `service` — the inverse of
    /// the [`transact_raw`](Self::transact_raw) code mapping. `None` if
    /// the service or method is unknown.
    pub fn transaction_code(&self, service: &str, method: &str) -> Option<u32> {
        let svc = self.service(service)?;
        svc.slot
            .resolve(&self.spec)
            .methods
            .iter()
            .position(|m| m.name == method)
            .map(|i| i as u32 + FIRST_CALL_TRANSACTION)
    }

    /// The method a raw transaction code addresses on `service`, or `None`
    /// if the code falls outside the method table (such a code dispatches
    /// as [`CallReject::UnknownCode`]).
    pub fn method_for_code(&self, service: &str, code: u32) -> Option<&str> {
        let svc = self.service(service)?;
        let idx = code.checked_sub(FIRST_CALL_TRANSACTION)? as usize;
        let method = svc.slot.resolve(&self.spec).methods.get(idx)?;
        Some(method.name.as_str())
    }

    /// How many IPC methods `service` exposes; valid raw transaction codes
    /// run `FIRST_CALL_TRANSACTION ..= FIRST_CALL_TRANSACTION + count - 1`.
    pub fn method_count(&self, service: &str) -> Option<usize> {
        self.service(service)
            .map(|s| s.slot.resolve(&self.spec).methods.len())
    }

    /// Creates a fresh live Binder node owned by `caller`'s process — what
    /// a client does before writing a strong binder into a parcel by hand
    /// (e.g. a fuzzer building a well-formed raw transaction). Launches
    /// the app's process if needed.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::UnknownApp`] if `caller` is not installed, or a
    /// launch failure.
    pub fn create_callback_node(
        &mut self,
        caller: Uid,
    ) -> Result<jgre_binder::NodeId, FrameworkError> {
        let app = self.apps.get(&caller).ok_or(FrameworkError::UnknownApp)?;
        let pid = match app.pid {
            Some(pid) if self.processes.is_healthy(pid) => pid,
            _ => self.launch_app(caller)?,
        };
        Ok(self.driver.create_node(pid))
    }

    /// Per-reason counts of fail-stop rejections folded into the driver's
    /// transaction ledger (see [`CallReject::reason`] for the keys).
    pub fn reject_counts(&self) -> &BTreeMap<&'static str, u64> {
        self.driver.reject_counts()
    }

    /// Registers an observer for JGR traffic on every current and future
    /// runtime (survives soft reboots).
    pub fn register_jgr_observer(&mut self, observer: Rc<dyn JgrObserver>) {
        for p in self.processes.iter_mut() {
            p.runtime.register_observer(observer.clone());
        }
        self.jgr_observers.push(observer);
    }

    /// Drops every registered JGR observer from every runtime — the
    /// observing process (the defender) died, and a dead process cannot
    /// receive events. Its supervised successor re-registers a fresh
    /// monitor after recovery.
    pub fn clear_jgr_observers(&mut self) {
        for p in self.processes.iter_mut() {
            p.runtime.clear_observers();
        }
        self.jgr_observers.clear();
    }

    // -- app management ----------------------------------------------------

    /// Installs a third-party app with the given granted permissions.
    /// The app gets a uid but no process until it first calls something.
    pub fn install_app(
        &mut self,
        package: impl Into<String>,
        granted: impl IntoIterator<Item = Permission>,
    ) -> Uid {
        let uid = Uid::new(self.next_uid);
        self.next_uid += 1;
        self.apps.insert(
            uid,
            InstalledApp {
                package: package.into().into(),
                granted: granted.into_iter().collect(),
                pid: None,
            },
        );
        uid
    }

    /// Grants an additional permission post-install.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::UnknownApp`] for unknown uids.
    pub fn grant_permission(&mut self, uid: Uid, p: Permission) -> Result<(), FrameworkError> {
        self.apps
            .get_mut(&uid)
            .ok_or(FrameworkError::UnknownApp)?
            .granted
            .insert(p);
        Ok(())
    }

    /// Package name of an installed app.
    pub fn package_of(&self, uid: Uid) -> Option<&str> {
        self.apps.get(&uid).map(|a| &*a.package)
    }

    /// Package name of an installed app, shared: a client writing it
    /// into a parcel bumps a count instead of copying it.
    pub fn shared_package_of(&self, uid: Uid) -> Option<&Rc<str>> {
        self.apps.get(&uid).map(|a| &a.package)
    }

    /// The app's live pid, if it is running.
    pub fn pid_of(&self, uid: Uid) -> Option<Pid> {
        self.apps.get(&uid).and_then(|a| a.pid)
    }

    /// Brings the app to the foreground, starting its process if needed.
    /// May evict a cached background app through the LMK.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::UnknownApp`] for unknown uids.
    pub fn launch_app(&mut self, uid: Uid) -> Result<Pid, FrameworkError> {
        let app = self.apps.get(&uid).ok_or(FrameworkError::UnknownApp)?;
        if let Some(pid) = app.pid {
            if self.processes.is_healthy(pid) {
                // Foreground it.
                for p in self.processes.iter_mut() {
                    if p.uid.is_app() {
                        p.oom_score_adj = if p.pid == pid {
                            OOM_SCORE_FOREGROUND
                        } else {
                            OOM_SCORE_BACKGROUND
                        };
                    }
                }
                let now = self.clock.now();
                if let Some(p) = self.processes.get_mut(pid) {
                    p.last_foreground = now;
                }
                return Ok(pid);
            }
        }
        // LMK: evict if at the cap.
        while self.running_app_count() >= self.config.lmk.max_user_apps {
            let candidates: Vec<LmkCandidate> = self
                .processes
                .iter()
                .filter(|p| p.uid.is_app())
                .map(|p| LmkCandidate {
                    pid: p.pid,
                    oom_score_adj: p.oom_score_adj,
                    last_foreground: p.last_foreground,
                })
                .collect();
            match select_lmk_victim(&candidates) {
                Some(victim) => {
                    let uid = self.processes.get(victim).map(|p| p.uid);
                    if let Some(victim_uid) = uid {
                        // LMK is a kernel SIGKILL: infallible even under
                        // fault injection, so this loop always drains.
                        self.force_kill_app(victim_uid);
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        let package = self
            .apps
            .get(&uid)
            .map(|a| Rc::clone(&a.package))
            .ok_or(FrameworkError::UnknownApp)?;
        let pid = self.spawn_process(uid, &package, OOM_SCORE_FOREGROUND);
        for p in self.processes.iter_mut() {
            if p.uid.is_app() && p.pid != pid {
                p.oom_score_adj = OOM_SCORE_BACKGROUND;
            }
        }
        self.apps
            .get_mut(&uid)
            .ok_or(FrameworkError::UnknownApp)?
            .pid = Some(pid);
        Ok(pid)
    }

    /// Kills an app's process the way the defender does (`am force-stop`):
    /// its binder nodes die, every service releases the entries it
    /// retained for the app, and each affected host runs a GC so the JGR
    /// entries actually return — *"when one process is terminated, its
    /// corresponding JGR entries will be released"*.
    ///
    /// Under fault injection the kill may [fail](KillOutcome::Failed) or
    /// the app may [respawn](KillOutcome::Respawned); callers that must
    /// reclaim the entries have to check the outcome and retry.
    pub fn kill_app(&mut self, uid: Uid) -> KillOutcome {
        let Some(pid) = self.apps.get(&uid).and_then(|a| a.pid) else {
            return KillOutcome::NotRunning;
        };
        if self.faults.kill_fails() {
            self.trace.record(
                self.clock.now(),
                Some(pid),
                Some(uid),
                "system.kill_failed",
                "injected fault: force-stop did not land",
            );
            return KillOutcome::Failed;
        }
        self.kill_pid(uid, pid);
        if self.faults.kill_respawns() {
            self.respawn_app(uid);
            self.trace.record(
                self.clock.now(),
                None,
                Some(uid),
                "system.kill_respawned",
                "injected fault: killed app restarted",
            );
            return KillOutcome::Respawned;
        }
        KillOutcome::Killed
    }

    /// The kernel path (LMK / uninstall): a SIGKILL that cannot fail and
    /// after which nothing restarts the app. Fault injection only models
    /// `am force-stop` flakiness, so this stays infallible — which also
    /// keeps the LMK eviction loop in [`launch_app`](Self::launch_app)
    /// guaranteed to terminate.
    fn force_kill_app(&mut self, uid: Uid) {
        if let Some(pid) = self.apps.get(&uid).and_then(|a| a.pid) {
            self.kill_pid(uid, pid);
        }
    }

    /// Respawns a just-killed app as a fresh background process (sticky
    /// services / sync adapters bringing it straight back).
    fn respawn_app(&mut self, uid: Uid) {
        let Some(package) = self.apps.get(&uid).map(|a| Rc::clone(&a.package)) else {
            return;
        };
        let pid = self.spawn_process(uid, &package, OOM_SCORE_BACKGROUND);
        if let Some(app) = self.apps.get_mut(&uid) {
            app.pid = Some(pid);
        }
    }

    fn kill_pid(&mut self, uid: Uid, pid: Pid) {
        self.processes.kill(pid);
        let _notifications = self.driver.kill_process(pid);
        if let Some(app) = self.apps.get_mut(&uid) {
            app.pid = None;
        }
        // Release retained entries and note which hosts to collect.
        let mut affected_hosts = BTreeSet::new();
        for svc in &mut self.services {
            for state in &mut svc.per_method {
                if let Some(entries) = state.retained.remove(&pid) {
                    state.total_retained = state.total_retained.saturating_sub(entries.len());
                    if let Some(host) = self.processes.get_mut(svc.host) {
                        for rb in entries {
                            // The proxy may already be stale after a host
                            // reboot; release is best-effort, as in Android.
                            let _ = host.runtime.release(rb.proxy);
                        }
                        affected_hosts.insert(svc.host);
                    }
                }
                if let Some(rb) = state.single.remove(&pid) {
                    if let Some(host) = self.processes.get_mut(svc.host) {
                        let _ = host.runtime.release(rb.proxy);
                        affected_hosts.insert(svc.host);
                    }
                }
            }
        }
        // Drop helper bookkeeping for the dead app.
        self.helper_counts.retain(|(u, _, _), _| *u != uid);
        for host in affected_hosts {
            if let Some(p) = self.processes.get_mut(host) {
                p.runtime.collect_garbage();
            }
        }
    }

    /// Models a burst of framework-internal activity: system components
    /// exchanging binders among themselves create `count` transient
    /// global references in `system_server` that the next collection
    /// returns. This is what makes the idle device's JGR table *wobble*
    /// inside Figure 4's 1000–3000 band rather than sit flat on the
    /// stock floor.
    pub fn framework_activity(&mut self, count: usize) {
        let ss = self.system_server;
        if let Some(p) = self.processes.get_mut(ss) {
            for _ in 0..count {
                // Unretained: the proxy's finalizer releases the reference
                // at the next GC.
                let _ = materialize_strong_binder(&mut p.runtime, jgre_binder::NodeId::new(0));
            }
        }
    }

    /// Uninstalls an app: kills its process (releasing every JGR entry it
    /// pinned, as [`kill_app`](Self::kill_app) does) and removes the
    /// installation record; the uid is never reused. Uninstall uses the
    /// kernel kill path, so injected `am force-stop` faults cannot leave a
    /// ghost process behind.
    pub fn uninstall_app(&mut self, uid: Uid) {
        self.force_kill_app(uid);
        self.apps.remove(&uid);
    }

    /// Runs a garbage collection on a process (the DDMS trigger of the
    /// paper's dynamic verification).
    pub fn gc_process(&mut self, pid: Pid) {
        if let Some(p) = self.processes.get_mut(pid) {
            p.runtime.collect_garbage();
        }
    }

    // -- the IPC path ------------------------------------------------------

    /// Dispatches one IPC call from `caller` to `service.method`.
    ///
    /// This is the full pipeline the paper instruments: permission check →
    /// (optional) helper threshold → Binder transaction (logged by the
    /// driver, latency applied) → server-side limit → handler execution
    /// (cost grows with retained entries) → JGR creation after the
    /// interface's `Delay` → retention per the handler's behaviour →
    /// abort/soft-reboot when the 51200 cap blows.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::UnknownApp`] / [`UnknownService`] /
    /// [`UnknownMethod`] for bad addressing,
    /// [`PermissionDenied`] when the caller lacks the method's permission,
    /// [`HelperLimitExceeded`] when called `via_helper` beyond the helper's
    /// threshold, [`ServiceDead`] / [`Binder`] for dead targets.
    ///
    /// [`UnknownService`]: FrameworkError::UnknownService
    /// [`UnknownMethod`]: FrameworkError::UnknownMethod
    /// [`PermissionDenied`]: FrameworkError::PermissionDenied
    /// [`HelperLimitExceeded`]: FrameworkError::HelperLimitExceeded
    /// [`ServiceDead`]: FrameworkError::ServiceDead
    /// [`Binder`]: FrameworkError::Binder
    pub fn call_service(
        &mut self,
        caller: Uid,
        service: &str,
        method: &str,
        options: CallOptions,
    ) -> Result<CallOutcome, FrameworkError> {
        // 1. Resolve the caller and make sure it has a process. The app
        //    record is read once; launching rewrites it, so a launch
        //    reads it again.
        let app = self.apps.get(&caller).ok_or(FrameworkError::UnknownApp)?;
        let (app, caller_pid) = match app.pid {
            Some(pid) if self.processes.is_healthy(pid) => (app, pid),
            _ => {
                let pid = self.launch_app(caller)?;
                let app = self.apps.get(&caller).ok_or(FrameworkError::UnknownApp)?;
                (app, pid)
            }
        };

        // 2. Resolve the service and method once, borrowing both from
        //    the shared spec; everything downstream addresses them by
        //    table index and AIDL position.
        let spec = Rc::clone(&self.spec);
        let index = self
            .hint
            .service(&self.services, &spec, service)
            .ok_or_else(|| FrameworkError::UnknownService(service.to_owned()))?;
        let svc = &self.services[index];
        let (slot, node, host) = (svc.slot, svc.node, svc.host);
        let svc_spec = slot.resolve(&spec);
        let position =
            self.hint
                .method(svc_spec, method)
                .ok_or_else(|| FrameworkError::UnknownMethod {
                    service: service.to_owned(),
                    method: method.to_owned(),
                })?;
        let mspec = &svc_spec.methods[position];
        if !self.processes.is_healthy(host) {
            return Err(FrameworkError::ServiceDead);
        }

        // 3. Permission check at the Binder boundary.
        if let Some(p) = mspec.permission {
            let allowed = match p.level() {
                ProtectionLevel::Signature => !caller.is_app(),
                _ => app.granted.contains(&p),
            };
            if !allowed {
                return Err(FrameworkError::PermissionDenied { permission: p });
            }
        }

        // 4. Helper threshold (client-side; only honoured when the caller
        //    routes through the documented API).
        if options.via_helper {
            if let Protection::HelperThreshold {
                helper_class,
                limit,
            } = &mspec.protection
            {
                let count = self
                    .helper_counts
                    .get(&(caller, slot, position))
                    .copied()
                    .unwrap_or(0);
                if count >= *limit {
                    return Err(FrameworkError::HelperLimitExceeded {
                        helper: helper_class.clone(),
                        limit: *limit,
                    });
                }
            }
        }

        // 5. Marshal into the reused parcel and send the transaction.
        let package = if options.spoof_system_package {
            Rc::clone(&self.names.system_package)
        } else {
            Rc::clone(&app.package)
        };
        let mut parcel = std::mem::take(&mut self.marshal);
        self.marshal_call(&mut parcel, package, caller_pid, mspec, &options);
        let code = position as u32 + FIRST_CALL_TRANSACTION;
        let (interface, logged_method) = self.names.resolve(slot, code);
        let outcome = match self.driver.record_transaction_on_path(
            caller_pid,
            caller,
            node,
            interface,
            logged_method,
            &parcel,
            options.path_variant,
        ) {
            // 6-7. Server side: unmarshal and run the handler. The
            // framework marshalled the parcel above so every read
            // succeeds; `transact_raw` feeds the same core arbitrary
            // parcels and exercises the typed rejections instead.
            Ok(sent_at) => self.dispatch_parcel(DispatchRequest {
                caller,
                caller_pid,
                index,
                position,
                mspec,
                host,
                parcel: &mut parcel,
                sent_at,
                via_helper: options.via_helper,
                path_variant: options.path_variant,
            }),
            Err(e) => Err(FrameworkError::Binder(e)),
        };
        self.marshal = parcel;
        outcome
    }

    /// Writes the framework's own marshal of a call into `parcel`,
    /// emptied first: the calling package (shared with the app record,
    /// not copied), the callback binder for methods that take one, and
    /// any padding.
    fn marshal_call(
        &mut self,
        parcel: &mut Parcel,
        package: Rc<str>,
        caller_pid: Pid,
        mspec: &MethodSpec,
        options: &CallOptions,
    ) {
        parcel.clear();
        parcel.write_string(package);
        if passes_binder(mspec) {
            let cb = self.driver.create_node(caller_pid);
            parcel.write_strong_binder(cb);
        }
        if options.payload_extra_bytes > 0 {
            parcel.write_blob(options.payload_extra_bytes);
        }
    }

    /// Dispatches one **raw** Binder transaction, the attacker-grade entry
    /// point `jgre fuzz` drives: `code` addresses the method positionally
    /// (`FIRST_CALL_TRANSACTION + index` in AIDL declaration order) and
    /// `parcel` is delivered to the server exactly as provided — no
    /// framework marshalling, no helper-class mediation. Whatever shape the
    /// parcel claims is what the server-side unmarshalling must survive:
    /// every malformed input (unknown code, wrong arity, type-confused
    /// read, stale/foreign binder, oversized blob, truncated payload) is a
    /// typed [`CallStatus::Rejected`] outcome counted per reason in the
    /// driver's ledger — never a panic, never an abort.
    ///
    /// The permission check still runs (it is enforced server-side at the
    /// Binder boundary; raw transactions cannot skip it), and a read
    /// failure leaves the parcel cursor exactly at the failing position
    /// (see `Parcel`'s cursor determinism contract), so a replayed fuzz
    /// input is byte-stable.
    ///
    /// # Errors
    ///
    /// Addressing errors that in Android would fail before reaching the
    /// server surface as [`FrameworkError`]s, exactly as in
    /// [`call_service`](Self::call_service): `UnknownApp`,
    /// `UnknownService`, `ServiceDead`, `PermissionDenied`, `Binder`.
    pub fn transact_raw(
        &mut self,
        caller: Uid,
        service: &str,
        code: u32,
        parcel: &mut Parcel,
    ) -> Result<CallOutcome, FrameworkError> {
        let app = self.apps.get(&caller).ok_or(FrameworkError::UnknownApp)?;
        let (app, caller_pid) = match app.pid {
            Some(pid) if self.processes.is_healthy(pid) => (app, pid),
            _ => {
                let pid = self.launch_app(caller)?;
                let app = self.apps.get(&caller).ok_or(FrameworkError::UnknownApp)?;
                (app, pid)
            }
        };
        let spec = Rc::clone(&self.spec);
        let index = self
            .hint
            .service(&self.services, &spec, service)
            .ok_or_else(|| FrameworkError::UnknownService(service.to_owned()))?;
        let svc = &self.services[index];
        let (slot, node, host) = (svc.slot, svc.node, svc.host);
        let svc_spec = slot.resolve(&spec);
        if !self.processes.is_healthy(host) {
            return Err(FrameworkError::ServiceDead);
        }
        let position = code
            .checked_sub(FIRST_CALL_TRANSACTION)
            .map(|i| i as usize)
            .filter(|&i| i < svc_spec.methods.len());
        let Some(position) = position else {
            // Unknown transaction code: the kernel cannot know the code is
            // bad, so the driver still routes and logs the transaction;
            // the server's `onTransact` then returns false.
            let (interface, method) = self.names.resolve(slot, code);
            let sent_at = match self
                .driver
                .record_transaction_on_path(caller_pid, caller, node, interface, method, parcel, 0)
            {
                Ok(at) => at,
                Err(BinderError::TransactionTooLarge { .. }) => {
                    // The driver already counted "oversized-payload".
                    let at = self.clock.now();
                    return Ok(self.rejected_outcome(host, at, CallReject::OversizedPayload));
                }
                Err(e) => return Err(FrameworkError::Binder(e)),
            };
            return Ok(self.reject_call(host, sent_at, CallReject::UnknownCode));
        };
        let mspec = &svc_spec.methods[position];

        // Permission check at the Binder boundary (server-side; raw
        // transactions cannot skip it).
        if let Some(p) = mspec.permission {
            let allowed = match p.level() {
                ProtectionLevel::Signature => !caller.is_app(),
                _ => app.granted.contains(&p),
            };
            if !allowed {
                return Err(FrameworkError::PermissionDenied { permission: p });
            }
        }

        let (interface, method) = self.names.resolve(slot, code);
        let sent_at = match self
            .driver
            .record_transaction_on_path(caller_pid, caller, node, interface, method, parcel, 0)
        {
            Ok(at) => at,
            Err(BinderError::TransactionTooLarge { .. }) => {
                // The driver already counted "oversized-payload".
                let at = self.clock.now();
                return Ok(self.rejected_outcome(host, at, CallReject::OversizedPayload));
            }
            Err(e) => return Err(FrameworkError::Binder(e)),
        };
        self.dispatch_parcel(DispatchRequest {
            caller,
            caller_pid,
            index,
            position,
            mspec,
            host,
            parcel,
            sent_at,
            via_helper: false,
            path_variant: 0,
        })
    }

    /// Fail-stop rejection of a malformed transaction: counts the reason
    /// in the driver's ledger, then charges the short bail-out cost.
    fn reject_call(&mut self, host: Pid, sent_at: SimTime, reject: CallReject) -> CallOutcome {
        self.driver.note_reject(reject.reason());
        self.rejected_outcome(host, sent_at, reject)
    }

    /// The rejected [`CallOutcome`] shape shared by every fail-stop path:
    /// a short constant cost (the server bails out before the handler
    /// body), no JGR effect, no abort.
    fn rejected_outcome(&mut self, host: Pid, sent_at: SimTime, reject: CallReject) -> CallOutcome {
        let cost = SimDuration::from_micros(self.rng.jitter(150, 50));
        self.clock.advance(cost);
        CallOutcome {
            status: CallStatus::Rejected(reject),
            sent_at,
            exec_time: cost,
            jgr_created: 0,
            host_jgr_count: self.jgr_count(host).unwrap_or(0),
            host_aborted: false,
        }
    }

    /// The server-side dispatch core shared by [`call_service`] and
    /// [`transact_raw`]: unmarshals the parcel with `Parcel::read_*`
    /// (every failure a typed [`CallReject`], never a panic), applies the
    /// per-process limit, and runs the handler.
    ///
    /// [`call_service`]: Self::call_service
    /// [`transact_raw`]: Self::transact_raw
    fn dispatch_parcel(&mut self, req: DispatchRequest<'_>) -> Result<CallOutcome, FrameworkError> {
        let DispatchRequest {
            caller,
            caller_pid,
            index,
            position,
            mspec,
            host,
            parcel,
            sent_at,
            via_helper,
            path_variant,
        } = req;

        // Server-side unmarshal. The wire format is: calling package
        // (string), then — for methods that take a client callback — a
        // strong binder, then an optional trailing payload blob. Anything
        // that deviates is rejected fail-stop with a typed reason before
        // any bookkeeping mutates, so malformed traffic has no JGR effect
        // and cannot abort the host.
        parcel.rewind();
        let system_package = match parcel.read_string() {
            Ok(package) => package == "android",
            Err(e) => {
                return Ok(self.reject_call(host, sent_at, CallReject::from_parcel_error(&e)))
            }
        };
        let callback_node = if passes_binder(mspec) {
            match parcel.read_strong_binder() {
                Ok(cb) if self.driver.is_alive(cb) => Some(cb),
                // A dead or never-created node: linking a death recipient
                // to it would fail, so the server refuses the callback.
                Ok(_) => return Ok(self.reject_call(host, sent_at, CallReject::StaleBinder)),
                Err(e) => {
                    return Ok(self.reject_call(host, sent_at, CallReject::from_parcel_error(&e)))
                }
            }
        } else {
            None
        };
        // Optional trailing payload padding; further trailing values are
        // ignored, as android.os.Parcel ignores unread data.
        if parcel.peek_type() == Some("blob") {
            let _ = parcel.read_blob();
        }

        // 6. Server-side per-process limit (Table III).
        let method_count = self.services[index].slot.resolve(&self.spec).methods.len();
        let state = self.services[index].method_mut(position, method_count);
        state.calls += 1;
        let total_retained = state.total_retained;
        let caller_retained = state.retained.get(&caller_pid).map_or(0, Vec::len);
        if let Protection::PerProcessLimit { limit, flaw } = &mspec.protection {
            let spoofed = *flaw == Some(Flaw::SystemPackageSpoof) && system_package;
            if !spoofed && caller_retained >= *limit as usize {
                // Rejected: a short constant cost, no JGR (the handler
                // frame is never entered on this path).
                let cost = SimDuration::from_micros(self.rng.jitter(150, 50));
                self.clock.advance(cost);
                return Ok(CallOutcome {
                    status: CallStatus::RejectedByServerLimit,
                    sent_at,
                    exec_time: cost,
                    jgr_created: 0,
                    host_jgr_count: self.jgr_count(host).unwrap_or(0),
                    host_aborted: false,
                });
            }
        }

        // 7. Execute the handler on a Binder thread: entering the native
        //    side pushes a JNI local-reference frame; the unmarshalled
        //    parcel objects live in it and die when the method returns —
        //    the "automatically freed" half of §II-A.
        let handler_frame = self.enter_handler_frame(host);
        let jitter = if mspec.cost.jitter_us == 0 {
            0
        } else {
            self.rng.range(0..=mspec.cost.jitter_us)
        };
        let nominal = mspec.cost.expected_us(total_retained) + jitter;
        let delta = if mspec.cost.jitter_us == 0 {
            0
        } else {
            self.rng.range(0..=mspec.cost.jitter_us)
        };
        // The JGR entry is created Delay+Δ into the handler; for the few
        // interfaces whose registration machinery is slower than the
        // handler itself (large `delay_us`), creation lands right at the
        // end of the call — the defender still observes a long
        // IPC-to-JGR latency for them (§V-D.1's slow detections). The
        // `-1 µs` keeps the creation strictly inside the handler so it can
        // never share a timestamp with the caller's *next* transaction.
        // Alternate execution paths (§VI) run different code before the
        // registration, shifting the path's Delay constant.
        let path_delay = mspec.cost.delay_us + path_variant as u64 * 2_500;
        let pre_jgr = (path_delay + delta).min(nominal.saturating_sub(1));
        self.clock.advance(SimDuration::from_micros(pre_jgr));

        let mut jgr_created = 0usize;
        let mut host_aborted = false;
        match (mspec.jgr, callback_node) {
            (JgrBehavior::RetainPerCall { .. } | JgrBehavior::ReplaceSingle, None) => {
                // The unmarshal step rejected any parcel without a live
                // binder, so a retaining method always has its node here;
                // this arm is a typed fail-stop backstop (it replaces an
                // `expect`), so no dispatch path can panic the simulator.
                self.exit_handler_frame(host, handler_frame);
                return Ok(self.reject_call(host, sent_at, CallReject::MissingBinder));
            }
            (JgrBehavior::RetainPerCall { grefs_per_call }, Some(node)) => {
                for _ in 0..grefs_per_call.max(1) {
                    match self.materialize_and_retain(index, position, caller_pid, host, node) {
                        Ok(()) => jgr_created += 1,
                        Err(ArtError::TableOverflow { .. }) => {
                            host_aborted = true;
                            break;
                        }
                        Err(ArtError::RuntimeAborted) => {
                            host_aborted = true;
                            break;
                        }
                        Err(e) => return Err(FrameworkError::Art(e)),
                    }
                }
            }
            (JgrBehavior::Transient, _) => match self.materialize_transient(host) {
                Ok(()) => jgr_created += 1,
                Err(ArtError::TableOverflow { .. }) | Err(ArtError::RuntimeAborted) => {
                    host_aborted = true;
                }
                Err(e) => return Err(FrameworkError::Art(e)),
            },
            (JgrBehavior::ReplaceSingle, Some(node)) => {
                match self.materialize_replace_single(index, position, caller_pid, host, node) {
                    Ok(()) => jgr_created += 1,
                    Err(ArtError::TableOverflow { .. }) | Err(ArtError::RuntimeAborted) => {
                        host_aborted = true;
                    }
                    Err(e) => return Err(FrameworkError::Art(e)),
                }
            }
            (JgrBehavior::ThreadCreateOnly, _) => {
                // Thread::CreateNativeThread adds and immediately releases.
                if let Some(p) = self.processes.get_mut(host) {
                    let obj = p.runtime.alloc("java.lang.Thread");
                    match p.runtime.add_global(obj) {
                        Ok(iref) => {
                            jgr_created += 1;
                            if p.runtime.delete_global(iref).is_err() {
                                // Losing the paired delete on an aborting
                                // runtime is survivable; the table dies
                                // with the process anyway.
                                host_aborted = true;
                            }
                        }
                        Err(ArtError::TableOverflow { .. }) | Err(ArtError::RuntimeAborted) => {
                            host_aborted = true;
                        }
                        Err(e) => return Err(FrameworkError::Art(e)),
                    }
                }
            }
            (JgrBehavior::NoJgr, _) => {}
        }

        // Remainder of the handler's execution time.
        self.clock
            .advance(SimDuration::from_micros(nominal.saturating_sub(pre_jgr)));

        if via_helper {
            if let Protection::HelperThreshold { .. } = &mspec.protection {
                let slot = self.services[index].slot;
                *self
                    .helper_counts
                    .entry((caller, slot, position))
                    .or_insert(0) += 1;
            }
        }

        self.exit_handler_frame(host, handler_frame);
        let host_jgr_count = self.jgr_count(host).unwrap_or(0);
        if host_aborted {
            self.handle_abort(host);
        }
        Ok(CallOutcome {
            status: CallStatus::Completed,
            sent_at,
            exec_time: SimDuration::from_micros(nominal),
            jgr_created,
            host_jgr_count,
            host_aborted,
        })
    }

    /// Enters a JNI local-reference frame on the host's Binder thread and
    /// creates locals for the unmarshalled call arguments, mirroring what
    /// `onTransact` does on entry. Returns `None` for hosts without a
    /// Java runtime state we can touch (dead process).
    fn enter_handler_frame(&mut self, host: Pid) -> Option<(jgre_art::EnvId, jgre_art::IrtCookie)> {
        let p = self.processes.get_mut(host)?;
        // One Binder thread per host process is enough for a sequential
        // simulation; its tid mirrors the host pid.
        let env = p.runtime.attach_thread(Tid::new(host.raw()));
        let cookie = p.runtime.push_local_frame(env).ok()?;
        // Locals for the parcel and the caller token, alive for the call.
        for class in ["android.os.Parcel", "android.os.Binder$CallerToken"] {
            let obj = p.runtime.alloc(class);
            if p.runtime.add_local(env, obj).is_err() {
                break;
            }
        }
        Some((env, cookie))
    }

    /// Pops the handler's local frame; the locals' objects become garbage
    /// (collected at the next GC), like any local reference after the
    /// native method returns.
    fn exit_handler_frame(
        &mut self,
        host: Pid,
        frame: Option<(jgre_art::EnvId, jgre_art::IrtCookie)>,
    ) {
        let Some((env, cookie)) = frame else { return };
        if let Some(p) = self.processes.get_mut(host) {
            let _ = p.runtime.pop_local_frame(env, cookie);
        }
    }

    /// Materialises the call's binder in the host and files it as
    /// retained for the caller, under the method at `position` of the
    /// service at `index` (the dispatch already allocated its state).
    fn materialize_and_retain(
        &mut self,
        index: usize,
        position: usize,
        caller_pid: Pid,
        host: Pid,
        node: jgre_binder::NodeId,
    ) -> Result<(), ArtError> {
        let p = self
            .processes
            .get_mut(host)
            .ok_or(ArtError::RuntimeAborted)?;
        let rb = materialize_strong_binder(&mut p.runtime, node)?;
        p.runtime.retain(rb.proxy)?;
        let state = &mut self.services[index].per_method[position];
        state.retained.entry(caller_pid).or_default().push(rb);
        state.total_retained += 1;
        Ok(())
    }

    fn materialize_transient(&mut self, host: Pid) -> Result<(), ArtError> {
        let p = self
            .processes
            .get_mut(host)
            .ok_or(ArtError::RuntimeAborted)?;
        let node = jgre_binder::NodeId::new(0);
        // Not retained: the next GC's finalizer releases the reference.
        materialize_strong_binder(&mut p.runtime, node).map(|_| ())
    }

    /// Materialises the call's binder and makes it the caller's single
    /// member of the method at `position` of the service at `index`,
    /// releasing the member it replaces.
    fn materialize_replace_single(
        &mut self,
        index: usize,
        position: usize,
        caller_pid: Pid,
        host: Pid,
        node: jgre_binder::NodeId,
    ) -> Result<(), ArtError> {
        let p = self
            .processes
            .get_mut(host)
            .ok_or(ArtError::RuntimeAborted)?;
        let rb = materialize_strong_binder(&mut p.runtime, node)?;
        p.runtime.retain(rb.proxy)?;
        let state = &mut self.services[index].per_method[position];
        if let Some(prev) = state.single.insert(caller_pid, rb) {
            // The replaced member's proxy becomes collectable.
            let _ = p.runtime.release(prev.proxy);
        }
        Ok(())
    }

    fn handle_abort(&mut self, host: Pid) {
        if host == self.system_server {
            self.soft_reboot();
        } else {
            // An app process (e.g. Bluetooth) dies alone.
            let uid = self.processes.get(host).map(|p| p.uid);
            self.processes.kill(host);
            self.driver.kill_process(host);
            // Its exported services go dark.
            self.services.retain(|s| s.host != host);
            if let Some(uid) = uid {
                if let Some(app) = self.apps.get_mut(&uid) {
                    app.pid = None;
                }
            }
            self.trace.record(
                self.clock.now(),
                Some(host),
                None,
                "system.process_crash",
                "runtime aborted: JGR table overflow",
            );
        }
    }

    /// Tears the device down and boots the framework again after a
    /// `system_server` abort — Android's soft reboot. All app processes
    /// die; installed apps and granted permissions survive.
    fn soft_reboot(&mut self) {
        self.soft_reboots += 1;
        self.trace.record(
            self.clock.now(),
            Some(self.system_server),
            None,
            "system.soft_reboot",
            format_args!("reboot #{}", self.soft_reboots),
        );
        let all_pids: Vec<Pid> = self.processes.iter().map(|p| p.pid).collect();
        for pid in all_pids {
            self.processes.kill(pid);
            self.driver.kill_process(pid);
        }
        for app in self.apps.values_mut() {
            app.pid = None;
        }
        // The service directory holds stale nodes; start_framework
        // re-registers every service.
        self.services.clear();
        self.helper_counts.clear();
        // Boot takes ~10 s of virtual time on the paper's hardware class.
        self.clock.advance(SimDuration::from_secs(10));
        self.start_framework();
    }

    /// Delivers a callback to every listener registered on
    /// `service.method` (the service broadcasting a state change to its
    /// `RemoteCallbackList`, e.g. the clipboard notifying
    /// `onPrimaryClipChanged`). Each delivery is a reverse Binder
    /// transaction from the host to the listener's process, logged and
    /// costed like any other. Returns the number delivered.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::UnknownService`] /
    /// [`FrameworkError::UnknownMethod`] for bad addressing.
    ///
    /// [`FrameworkError::UnknownService`]: FrameworkError::UnknownService
    /// [`FrameworkError::UnknownMethod`]: FrameworkError::UnknownMethod
    pub fn fire_service_callbacks(
        &mut self,
        service: &str,
        method: &str,
    ) -> Result<usize, FrameworkError> {
        let spec = Rc::clone(&self.spec);
        let index = self
            .hint
            .service(&self.services, &spec, service)
            .ok_or_else(|| FrameworkError::UnknownService(service.to_owned()))?;
        let svc = &self.services[index];
        let Some(position) = self.hint.method(svc.slot.resolve(&spec), method) else {
            return Err(FrameworkError::UnknownMethod {
                service: service.to_owned(),
                method: method.to_owned(),
            });
        };
        let host = svc.host;
        let interface = self.names.interface(svc.slot);
        let on_callback = IpcMethod::from("onCallback");
        let targets: Vec<jgre_binder::NodeId> = svc
            .method(position)
            .map(|state| {
                state
                    .retained
                    .values()
                    .flatten()
                    .map(|rb| rb.node)
                    .chain(state.single.values().map(|rb| rb.node))
                    .collect()
            })
            .unwrap_or_default();
        let mut delivered = 0usize;
        for node in targets {
            let mut parcel = Parcel::new();
            parcel.write_string(format!("{method}.callback"));
            // Dead listeners were already released by kill_app's eager
            // cleanup; a racing death is simply skipped, as
            // RemoteCallbackList does.
            if self
                .driver
                .record_transaction(
                    host,
                    Uid::SYSTEM,
                    node,
                    interface.clone(),
                    on_callback.clone(),
                    &parcel,
                )
                .is_ok()
            {
                delivered += 1;
            }
        }
        Ok(delivered)
    }

    /// Renders a `dumpsys`-style diagnostic block for a service: per-method
    /// call counts and retained entries, broken down by calling process —
    /// the view an engineer triaging a JGRE bug report starts from.
    ///
    /// Returns `None` for unregistered services.
    pub fn dumpsys(&self, service: &str) -> Option<String> {
        use std::fmt::Write as _;
        let svc = self.service(service)?;
        let spec = svc.slot.resolve(&self.spec);
        let mut out = format!(
            "SERVICE {} ({}) host={} native={}\n",
            spec.name, spec.interface, svc.host, spec.native
        );
        let host_jgr = self.jgr_count(svc.host).unwrap_or(0);
        let _ = writeln!(out, "  host JGR table: {host_jgr} entries");
        // Methods that were ever dispatched to, by name.
        let mut called: Vec<(&str, &MethodState)> = spec
            .methods
            .iter()
            .zip(&svc.per_method)
            .filter(|(_, state)| state.calls > 0)
            .map(|(m, state)| (m.name.as_str(), state))
            .collect();
        called.sort_unstable_by_key(|&(method, _)| method);
        for (method, state) in called {
            let _ = writeln!(
                out,
                "  {method}: {} calls, {} retained",
                state.calls, state.total_retained
            );
            for (pid, entries) in &state.retained {
                let owner = self
                    .apps
                    .iter()
                    .find(|(_, a)| a.pid == Some(*pid))
                    .map(|(uid, a)| format!("{uid} {}", a.package))
                    .unwrap_or_else(|| "unknown".to_owned());
                let _ = writeln!(out, "    {pid} ({owner}): {} entries", entries.len());
            }
        }
        Some(out)
    }

    /// Retained-entry count for one interface (verification looks at this
    /// alongside the JGR table).
    pub fn retained_entries(&self, service: &str, method: &str) -> usize {
        self.service(service)
            .and_then(|s| {
                let position = s.slot.resolve(&self.spec).position(method)?;
                s.method(position)
            })
            .map_or(0, |m| m.total_retained)
    }
}

/// Restart policy for a supervised system service (`init`-style): how
/// many times in a row a crashing service may be restarted, and how the
/// restart backoff grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SupervisorConfig {
    /// Consecutive crashes tolerated before the supervisor gives up (a
    /// healthy run of the service resets the count, as Android's init
    /// does for a service that stays up).
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per consecutive crash.
    pub backoff: SimDuration,
    /// Ceiling on a single backoff.
    pub backoff_cap: SimDuration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_restarts: 8,
            backoff: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_secs(2),
        }
    }
}

/// Bounded-restart supervisor: the loop `init` runs around a critical
/// service, reduced to its decisions. The caller reports crashes and
/// healthy runs; the supervisor answers with the backoff to wait before
/// the next restart, or `None` once the restart budget is exhausted.
///
/// # Example
///
/// ```
/// use jgre_framework::{Supervisor, SupervisorConfig};
///
/// let mut sup = Supervisor::new(SupervisorConfig::default());
/// let backoff = sup.on_crash().expect("first crash is restartable");
/// assert_eq!(backoff, SupervisorConfig::default().backoff);
/// sup.on_healthy(); // a good run resets the consecutive-crash count
/// assert_eq!(sup.total_restarts(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Supervisor {
    config: SupervisorConfig,
    consecutive_crashes: u32,
    total_restarts: u64,
    total_backoff: SimDuration,
    gave_up: bool,
}

impl Supervisor {
    /// Creates a supervisor with the given restart policy.
    pub fn new(config: SupervisorConfig) -> Self {
        Self {
            config,
            consecutive_crashes: 0,
            total_restarts: 0,
            total_backoff: SimDuration::ZERO,
            gave_up: false,
        }
    }

    /// The configured policy.
    pub fn config(&self) -> SupervisorConfig {
        self.config
    }

    /// The service crashed. Returns the backoff to wait before
    /// restarting it, or `None` when the consecutive-crash budget is
    /// spent — the supervisor then stays given-up permanently.
    pub fn on_crash(&mut self) -> Option<SimDuration> {
        if self.gave_up || self.consecutive_crashes >= self.config.max_restarts {
            self.gave_up = true;
            return None;
        }
        let exp = self.consecutive_crashes.min(16);
        let backoff = (self.config.backoff * (1u64 << exp)).min(self.config.backoff_cap);
        self.consecutive_crashes += 1;
        self.total_restarts += 1;
        self.total_backoff += backoff;
        Some(backoff)
    }

    /// The service completed a healthy run: reset the consecutive-crash
    /// count (but not the lifetime totals).
    pub fn on_healthy(&mut self) {
        if !self.gave_up {
            self.consecutive_crashes = 0;
        }
    }

    /// Whether the restart budget is exhausted.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Crashes since the last healthy run.
    pub fn consecutive_crashes(&self) -> u32 {
        self.consecutive_crashes
    }

    /// Restarts performed over the supervisor's lifetime.
    pub fn total_restarts(&self) -> u64 {
        self.total_restarts
    }

    /// Cumulative backoff waited across every restart.
    pub fn total_backoff(&self) -> SimDuration {
        self.total_backoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_system(cap: usize) -> System {
        System::boot_with(SystemConfig {
            seed: 1,
            jgr_capacity: Some(cap),
            ..SystemConfig::default()
        })
    }

    #[test]
    fn boot_registers_all_services() {
        let system = System::boot(0);
        // 104 system services + 3 app-exported services.
        assert_eq!(system.service_names().len(), 107);
        assert_eq!(system.process_count(), STOCK_PROCESS_COUNT);
        let info = system.service_info("clipboard").unwrap();
        assert_eq!(info.interface, "IClipboard");
        assert_eq!(info.host, system.system_server_pid());
        let gatt = system.service_info("bluetooth_gatt").unwrap();
        assert_ne!(gatt.host, system.system_server_pid());
    }

    #[test]
    fn permission_gate_enforced() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let err = system
            .call_service(app, "power", "acquireWakeLock", CallOptions::default())
            .unwrap_err();
        assert!(matches!(err, FrameworkError::PermissionDenied { .. }));
        system.grant_permission(app, Permission::WakeLock).unwrap();
        let outcome = system
            .call_service(app, "power", "acquireWakeLock", CallOptions::default())
            .unwrap();
        assert_eq!(outcome.jgr_created, 1);
    }

    #[test]
    fn signature_permission_blocks_third_party() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", [Permission::WriteSecureSettings]);
        // Even "granted", a signature permission cannot be held by a
        // third-party uid.
        let err = system
            .call_service(
                app,
                "device_policy",
                "addPolicyStatusListener",
                CallOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, FrameworkError::PermissionDenied { .. }));
    }

    #[test]
    fn retained_calls_grow_the_jgr_table_across_gc() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        for _ in 0..25 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        let ss = system.system_server_pid();
        system.gc_process(ss);
        assert_eq!(system.system_server_jgr_count(), 25);
        assert_eq!(
            system.retained_entries("clipboard", "addPrimaryClipChangedListener"),
            25
        );
    }

    #[test]
    fn transient_calls_drain_at_gc() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        // Find an innocent Transient method on the clipboard service.
        let spec = system.spec().service("clipboard").unwrap().clone();
        let transient = spec
            .methods
            .iter()
            .find(|m| matches!(m.jgr, JgrBehavior::Transient) && m.permission.is_none())
            .expect("catalog generates transient methods")
            .name
            .clone();
        for _ in 0..10 {
            system
                .call_service(app, "clipboard", &transient, CallOptions::default())
                .unwrap();
        }
        assert_eq!(system.system_server_jgr_count(), 10);
        let ss = system.system_server_pid();
        system.gc_process(ss);
        assert_eq!(system.system_server_jgr_count(), 0, "sift rule 2/3 pattern");
    }

    #[test]
    fn helper_threshold_blocks_but_direct_binder_bypasses() {
        let mut system = System::boot(0);
        let benign = system.install_app("com.benign", [Permission::WakeLock]);
        let mal = system.install_app("com.evil", [Permission::WakeLock]);
        // Benign path: helper stops at MAX_ACTIVE_LOCKS = 50.
        let mut ok = 0;
        for _ in 0..60 {
            match system.call_service(benign, "wifi", "acquireWifiLock", CallOptions::benign()) {
                Ok(_) => ok += 1,
                Err(FrameworkError::HelperLimitExceeded { limit, .. }) => {
                    assert_eq!(limit, 50);
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(ok, 50);
        // Malicious path: direct Binder, no limit.
        for _ in 0..200 {
            system
                .call_service(mal, "wifi", "acquireWifiLock", CallOptions::default())
                .unwrap();
        }
        assert!(system.retained_entries("wifi", "acquireWifiLock") >= 250);
    }

    #[test]
    fn sound_per_process_limit_holds_but_spoof_bypasses_toast() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        // display.registerCallback caps at 1 per process.
        let first = system
            .call_service(app, "display", "registerCallback", CallOptions::default())
            .unwrap();
        assert!(first.status.is_completed());
        let second = system
            .call_service(app, "display", "registerCallback", CallOptions::default())
            .unwrap();
        assert_eq!(second.status, CallStatus::RejectedByServerLimit);
        assert_eq!(system.retained_entries("display", "registerCallback"), 1);

        // enqueueToast honestly: capped at 50.
        for _ in 0..50 {
            let o = system
                .call_service(app, "notification", "enqueueToast", CallOptions::default())
                .unwrap();
            assert!(o.status.is_completed());
        }
        let rejected = system
            .call_service(app, "notification", "enqueueToast", CallOptions::default())
            .unwrap();
        assert_eq!(rejected.status, CallStatus::RejectedByServerLimit);
        // Spoofing pkg="android" sails past the cap (Code-Snippet 3).
        let spoof = CallOptions {
            spoof_system_package: true,
            ..CallOptions::default()
        };
        for _ in 0..30 {
            let o = system
                .call_service(app, "notification", "enqueueToast", spoof.clone())
                .unwrap();
            assert!(o.status.is_completed());
        }
        assert_eq!(system.retained_entries("notification", "enqueueToast"), 80);
    }

    #[test]
    fn exhaustion_soft_reboots_the_device() {
        let mut system = small_system(200);
        let app = system.install_app("com.evil", []);
        let mut aborted = false;
        for _ in 0..300 {
            let o = system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            if o.host_aborted {
                aborted = true;
                break;
            }
        }
        assert!(aborted, "table of 200 must blow within 300 calls");
        assert_eq!(system.soft_reboots(), 1);
        // The device rebooted: services are back, table is empty.
        assert_eq!(system.system_server_jgr_count(), 0);
        assert!(system.service_info("clipboard").is_some());
        // And can be attacked again.
        let o = system
            .call_service(
                app,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .unwrap();
        assert!(o.status.is_completed());
    }

    #[test]
    fn app_service_abort_kills_only_that_app() {
        let mut system = small_system(150);
        let app = system.install_app("com.evil", []);
        let mut crashed = false;
        for _ in 0..200 {
            match system.call_service(app, "pico_tts", "setCallback", CallOptions::default()) {
                Ok(o) if o.host_aborted => {
                    crashed = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(crashed);
        assert_eq!(system.soft_reboots(), 0, "system_server survives");
        assert!(
            matches!(
                system.call_service(app, "pico_tts", "setCallback", CallOptions::default()),
                Err(FrameworkError::UnknownService(_))
            ),
            "the crashed app's service is gone"
        );
    }

    #[test]
    fn killing_the_attacker_releases_its_jgr_entries() {
        let mut system = System::boot(0);
        let evil = system.install_app("com.evil", []);
        let benign = system.install_app("com.benign", []);
        for _ in 0..40 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        for _ in 0..5 {
            system
                .call_service(
                    benign,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        assert_eq!(system.system_server_jgr_count(), 45);
        system.kill_app(evil);
        assert_eq!(
            system.system_server_jgr_count(),
            5,
            "only the benign app's entries remain"
        );
    }

    #[test]
    fn kill_outcomes_reflect_injected_faults() {
        use jgre_sim::{FaultIntensity, FaultKind};
        let mut system = System::boot_with(SystemConfig {
            seed: 1,
            faults: FaultPlan::single(FaultKind::KillFail, FaultIntensity::Moderate),
            ..SystemConfig::default()
        });
        let app = system.install_app("com.sticky", []);
        for _ in 0..10 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        // Moderate kill-fail = exactly one budgeted failure, then kills work.
        assert_eq!(system.kill_app(app), KillOutcome::Failed);
        assert_eq!(
            system.system_server_jgr_count(),
            10,
            "failed kill reclaims nothing"
        );
        assert_eq!(system.kill_app(app), KillOutcome::Killed);
        assert_eq!(system.system_server_jgr_count(), 0);
        assert_eq!(system.kill_app(app), KillOutcome::NotRunning);
    }

    #[test]
    fn respawned_apps_come_back_empty() {
        use jgre_sim::{FaultIntensity, FaultKind};
        let mut system = System::boot_with(SystemConfig {
            seed: 1,
            faults: FaultPlan::single(FaultKind::KillRespawn, FaultIntensity::Severe),
            ..SystemConfig::default()
        });
        let app = system.install_app("com.sticky", []);
        for _ in 0..10 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        let old_pid = system.pid_of(app).unwrap();
        let mut respawned = false;
        for _ in 0..8 {
            match system.kill_app(app) {
                KillOutcome::Respawned => {
                    respawned = true;
                    break;
                }
                KillOutcome::Killed => {
                    system.launch_app(app).unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(respawned, "severe respawn plan must fire within 8 kills");
        // The entries died with the old process; the respawn is fresh.
        assert_eq!(system.system_server_jgr_count(), 0);
        let new_pid = system.pid_of(app).expect("respawned process is live");
        assert_ne!(new_pid, old_pid);
    }

    #[test]
    fn uninstall_wins_even_when_force_stop_faults() {
        use jgre_sim::{FaultIntensity, FaultKind};
        let mut system = System::boot_with(SystemConfig {
            seed: 1,
            faults: FaultPlan::single(FaultKind::KillFail, FaultIntensity::Severe),
            ..SystemConfig::default()
        });
        let app = system.install_app("com.gone", []);
        for _ in 0..5 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        system.uninstall_app(app);
        assert_eq!(system.system_server_jgr_count(), 0);
        assert!(system.package_of(app).is_none());
    }

    #[test]
    fn lmk_caps_running_apps() {
        let mut system = System::boot(0);
        let apps: Vec<Uid> = (0..50)
            .map(|i| system.install_app(format!("com.app{i}"), []))
            .collect();
        for &uid in &apps {
            system.launch_app(uid).unwrap();
        }
        assert!(system.running_app_count() <= LmkConfig::default().max_user_apps);
        assert!(system.process_count() <= STOCK_PROCESS_COUNT + LmkConfig::default().max_user_apps);
    }

    #[test]
    fn callbacks_reach_exactly_the_live_listeners() {
        let mut system = System::boot(0);
        let a = system.install_app("com.a", []);
        let b = system.install_app("com.b", []);
        for _ in 0..2 {
            system
                .call_service(
                    a,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        system
            .call_service(
                b,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .unwrap();
        assert_eq!(
            system
                .fire_service_callbacks("clipboard", "addPrimaryClipChangedListener")
                .unwrap(),
            3
        );
        // Killing one listener prunes its registrations eagerly.
        system.kill_app(a);
        assert_eq!(
            system
                .fire_service_callbacks("clipboard", "addPrimaryClipChangedListener")
                .unwrap(),
            1
        );
        // The deliveries hit the driver log as host→app transactions.
        let reverse = system
            .driver()
            .log()
            .iter()
            .filter(|r| r.method == "onCallback")
            .count();
        assert_eq!(reverse, 4);
        assert!(matches!(
            system.fire_service_callbacks("clipboard", "noSuchMethod"),
            Err(FrameworkError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn callbacks_reach_a_replaced_single_member() {
        // setConfig1 keeps one member per caller: the second call
        // replaces the first, and the callback reaches the survivor.
        let mut system = System::boot(0);
        let a = system.install_app("com.a", []);
        for _ in 0..2 {
            let outcome = system
                .call_service(a, "notification", "setConfig1", CallOptions::default())
                .unwrap();
            assert!(outcome.status.is_completed());
        }
        assert_eq!(
            system
                .fire_service_callbacks("notification", "setConfig1")
                .unwrap(),
            1
        );
    }

    #[test]
    fn uninstall_releases_and_forgets() {
        let mut system = System::boot(0);
        let app = system.install_app("com.gone", []);
        for _ in 0..9 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        system.uninstall_app(app);
        assert_eq!(system.system_server_jgr_count(), 0);
        assert!(matches!(
            system.call_service(app, "clipboard", "getState", CallOptions::default()),
            Err(FrameworkError::UnknownApp)
        ));
        assert!(system.package_of(app).is_none());
    }

    #[test]
    fn dumpsys_reports_per_caller_retention() {
        let mut system = System::boot(0);
        let app = system.install_app("com.dumped", []);
        for _ in 0..7 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        let dump = system.dumpsys("clipboard").expect("clipboard registered");
        assert!(dump.contains("SERVICE clipboard (IClipboard)"), "{dump}");
        assert!(
            dump.contains("addPrimaryClipChangedListener: 7 calls, 7 retained"),
            "{dump}"
        );
        assert!(dump.contains("com.dumped"), "{dump}");
        assert!(system.dumpsys("no-such-service").is_none());
    }

    #[test]
    fn execution_time_grows_with_retained_entries() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", [Permission::ReadPhoneState]);
        let first = system
            .call_service(
                app,
                "telephony.registry",
                "listenForSubscriber",
                CallOptions::default(),
            )
            .unwrap();
        for _ in 0..2_000 {
            system
                .call_service(
                    app,
                    "telephony.registry",
                    "listenForSubscriber",
                    CallOptions::default(),
                )
                .unwrap();
        }
        let late = system
            .call_service(
                app,
                "telephony.registry",
                "listenForSubscriber",
                CallOptions::default(),
            )
            .unwrap();
        assert!(
            late.exec_time.as_micros() > first.exec_time.as_micros(),
            "Figure 5 shape: {} !> {}",
            late.exec_time,
            first.exec_time
        );
    }

    // -- raw dispatch hardening (the surface `jgre fuzz` drives) ----------

    /// Builds the parcel the framework would marshal for a retaining
    /// method: package string, then a live callback binder.
    fn well_formed_parcel(system: &mut System, app: Uid) -> Parcel {
        let cb = system.create_callback_node(app).unwrap();
        let mut parcel = Parcel::new();
        parcel.write_string("com.example");
        parcel.write_strong_binder(cb);
        parcel
    }

    #[test]
    fn transact_raw_well_formed_matches_call_service() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let code = system
            .transaction_code("clipboard", "addPrimaryClipChangedListener")
            .unwrap();
        assert_eq!(
            system.method_for_code("clipboard", code),
            Some("addPrimaryClipChangedListener")
        );
        let mut parcel = well_formed_parcel(&mut system, app);
        let outcome = system
            .transact_raw(app, "clipboard", code, &mut parcel)
            .unwrap();
        assert_eq!(outcome.status, CallStatus::Completed);
        assert_eq!(outcome.jgr_created, 1);
        assert_eq!(
            system.retained_entries("clipboard", "addPrimaryClipChangedListener"),
            1
        );
    }

    #[test]
    fn transact_raw_rejects_unknown_code() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let count = system.method_count("clipboard").unwrap() as u32;
        let mut parcel = well_formed_parcel(&mut system, app);
        let outcome = system
            .transact_raw(
                app,
                "clipboard",
                FIRST_CALL_TRANSACTION + count,
                &mut parcel,
            )
            .unwrap();
        assert_eq!(outcome.status.reject(), Some(CallReject::UnknownCode));
        assert_eq!(outcome.jgr_created, 0);
        assert!(!outcome.host_aborted);
        // Code 0 sits below FIRST_CALL_TRANSACTION and is equally unknown.
        parcel.rewind();
        let outcome = system
            .transact_raw(app, "clipboard", 0, &mut parcel)
            .unwrap();
        assert_eq!(outcome.status.reject(), Some(CallReject::UnknownCode));
        assert_eq!(system.reject_counts().get("unknown-code"), Some(&2));
    }

    #[test]
    fn logged_transactions_render_their_ipc_type_keys() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let count = system.method_count("clipboard").unwrap() as u32;
        let last_key = |system: &System| {
            let record = system.driver().log().last().unwrap();
            (record.ipc_type(), record.ipc_type_with_path())
        };
        // A known code logs the method's name.
        let code = system
            .transaction_code("clipboard", "addPrimaryClipChangedListener")
            .unwrap();
        let mut parcel = well_formed_parcel(&mut system, app);
        system
            .transact_raw(app, "clipboard", code, &mut parcel)
            .unwrap();
        assert_eq!(
            last_key(&system),
            (
                "IClipboard.addPrimaryClipChangedListener".to_owned(),
                "IClipboard.addPrimaryClipChangedListener#0".to_owned()
            )
        );
        // An unknown code logs `<Interface>.#<code>`.
        for code in [FIRST_CALL_TRANSACTION + count, 0, 4_000_000_000] {
            parcel.rewind();
            system
                .transact_raw(app, "clipboard", code, &mut parcel)
                .unwrap();
            assert_eq!(
                last_key(&system),
                (
                    format!("IClipboard.#{code}"),
                    format!("IClipboard.#{code}#0")
                )
            );
        }
        // The path-classified key appends the execution path.
        let options = CallOptions {
            path_variant: 2,
            ..CallOptions::default()
        };
        system
            .call_service(app, "clipboard", "addPrimaryClipChangedListener", options)
            .unwrap();
        assert_eq!(
            last_key(&system),
            (
                "IClipboard.addPrimaryClipChangedListener".to_owned(),
                "IClipboard.addPrimaryClipChangedListener#2".to_owned()
            )
        );
        // Callbacks the service fires log `<Interface>.onCallback`.
        assert!(
            system
                .fire_service_callbacks("clipboard", "addPrimaryClipChangedListener")
                .unwrap()
                > 0
        );
        assert_eq!(last_key(&system).0, "IClipboard.onCallback");
    }

    #[test]
    fn devices_booted_from_one_image_share_its_log_names() {
        let call = |system: &mut System| {
            let app = system.install_app("com.example", []);
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            system.driver().log().last().unwrap().clone()
        };
        let mut first = System::boot(0);
        let before = call(&mut first);
        let mut second = System::boot_with_spec(SystemConfig::default(), first.image());
        let after = call(&mut second);
        assert_eq!(after.ipc_type(), "IClipboard.addPrimaryClipChangedListener");
        assert!(LogName::ptr_eq(&before.interface, &after.interface));
        let (IpcMethod::Named(a), IpcMethod::Named(b)) = (&before.method, &after.method) else {
            panic!("a known method logs its name");
        };
        assert!(LogName::ptr_eq(a, b), "interned once per image");
    }

    #[test]
    fn log_names_survive_an_app_service_leaving_the_directory() {
        // Every transaction the driver routes to a registered service is
        // logged under the names the spec gives it; returns how many.
        fn assert_logged_by_spec(system: &mut System, app: Uid) -> usize {
            let spec = Rc::clone(&system.spec);
            let mut logged = 0;
            for name in system.service_names() {
                let svc = spec
                    .services
                    .iter()
                    .chain(spec.prebuilt_apps.iter().flat_map(|a| a.services.iter()))
                    .find(|s| s.name == name)
                    .unwrap();
                let past = svc.methods.len() as u32 + FIRST_CALL_TRANSACTION;
                for code in FIRST_CALL_TRANSACTION..=past {
                    let expected = match svc.methods.get((code - FIRST_CALL_TRANSACTION) as usize) {
                        Some(m) => format!("{}.{}", svc.interface, m.name),
                        None => format!("{}.#{code}", svc.interface),
                    };
                    let len = system.driver().log().len();
                    let _ = system.transact_raw(app, &name, code, &mut Parcel::new());
                    // Permission-gated methods are refused before routing.
                    if system.driver().log().len() > len {
                        let record = system.driver().log().last().unwrap();
                        assert_eq!(record.ipc_type(), expected);
                        logged += 1;
                    }
                }
            }
            logged
        }
        let mut system = small_system(150);
        let app = system.install_app("com.evil", []);
        let before = system.service_names().len();
        // Crash PicoTts: its service leaves the name-sorted directory,
        // shifting every service that sorts after it.
        let crashed = (0..200).any(|_| {
            system
                .call_service(app, "pico_tts", "setCallback", CallOptions::default())
                .unwrap()
                .host_aborted
        });
        assert!(crashed);
        assert_eq!(system.service_names().len(), before - 1);
        assert!(assert_logged_by_spec(&mut system, app) > 2_000);
        // A device booted from the same image logs the same names.
        let mut next = System::boot_with_spec(system.config.clone(), system.image());
        let app = next.install_app("com.evil", []);
        assert!(assert_logged_by_spec(&mut next, app) > 2_000);
    }

    #[test]
    fn transact_raw_rejects_truncated_and_type_confused_parcels() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let code = system
            .transaction_code("clipboard", "addPrimaryClipChangedListener")
            .unwrap();

        // Empty parcel: the package string read underflows.
        let mut empty = Parcel::new();
        let outcome = system
            .transact_raw(app, "clipboard", code, &mut empty)
            .unwrap();
        assert_eq!(outcome.status.reject(), Some(CallReject::Underflow));

        // Wrong-arity: package present, required binder missing.
        let mut no_binder = Parcel::new();
        no_binder.write_string("com.example");
        let outcome = system
            .transact_raw(app, "clipboard", code, &mut no_binder)
            .unwrap();
        assert_eq!(outcome.status.reject(), Some(CallReject::Underflow));

        // Type confusion: an i32 where the package string belongs.
        let mut confused = Parcel::new();
        confused.write_i32(7).write_i64(9);
        let outcome = system
            .transact_raw(app, "clipboard", code, &mut confused)
            .unwrap();
        assert_eq!(outcome.status.reject(), Some(CallReject::TypeConfusion));

        // Nothing reached a handler; no JGR was created, nothing retained.
        assert_eq!(
            system.retained_entries("clipboard", "addPrimaryClipChangedListener"),
            0
        );
        assert_eq!(system.reject_counts().get("parcel-underflow"), Some(&2));
        assert_eq!(system.reject_counts().get("parcel-type-mismatch"), Some(&1));
    }

    #[test]
    fn transact_raw_rejects_stale_and_foreign_binders() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let code = system
            .transaction_code("clipboard", "addPrimaryClipChangedListener")
            .unwrap();
        // A NodeId the driver never handed out: foreign handle.
        let mut parcel = Parcel::new();
        parcel.write_string("com.example");
        parcel.write_strong_binder(jgre_binder::NodeId::new(0));
        let outcome = system
            .transact_raw(app, "clipboard", code, &mut parcel)
            .unwrap();
        assert_eq!(outcome.status.reject(), Some(CallReject::StaleBinder));
        assert_eq!(system.reject_counts().get("stale-binder"), Some(&1));
    }

    #[test]
    fn transact_raw_rejects_oversized_payload() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let code = system
            .transaction_code("clipboard", "addPrimaryClipChangedListener")
            .unwrap();
        let mut parcel = well_formed_parcel(&mut system, app);
        parcel.write_blob(2 * 1024 * 1024);
        let outcome = system
            .transact_raw(app, "clipboard", code, &mut parcel)
            .unwrap();
        assert_eq!(outcome.status.reject(), Some(CallReject::OversizedPayload));
        assert_eq!(system.reject_counts().get("oversized-payload"), Some(&1));
    }

    #[test]
    fn transact_raw_enforces_permissions() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let code = system.transaction_code("power", "acquireWakeLock").unwrap();
        let mut parcel = well_formed_parcel(&mut system, app);
        let err = system
            .transact_raw(app, "power", code, &mut parcel)
            .unwrap_err();
        assert!(matches!(err, FrameworkError::PermissionDenied { .. }));
    }

    #[test]
    fn rejected_transactions_never_mutate_jgr_state() {
        let mut system = System::boot(0);
        let app = system.install_app("com.example", []);
        let before = system.system_server_jgr_count();
        let code = system
            .transaction_code("clipboard", "addPrimaryClipChangedListener")
            .unwrap();
        for _ in 0..50 {
            let mut empty = Parcel::new();
            let outcome = system
                .transact_raw(app, "clipboard", code, &mut empty)
                .unwrap();
            assert!(outcome.status.reject().is_some());
        }
        let ss = system.system_server_pid();
        system.gc_process(ss);
        assert_eq!(system.system_server_jgr_count(), before);
    }

    #[test]
    fn abort_dump_names_each_stock_reference() {
        // The stock references' class names are rendered once per image;
        // the abort-time reference-table dump must still tell them apart,
        // across a soft reboot and on a second device of the same image.
        let config = SystemConfig {
            seed: 3,
            tracing: true,
            jgr_capacity: Some(40),
            stock_jgr: 12,
            ..SystemConfig::default()
        };
        let abort_dumps = |system: &mut System| {
            let app = system.install_app("com.evil", []);
            for _ in 0..60 {
                system
                    .call_service(
                        app,
                        "clipboard",
                        "addPrimaryClipChangedListener",
                        CallOptions::default(),
                    )
                    .unwrap();
            }
            let dumps: Vec<String> = system
                .trace()
                .of_kind("art.abort")
                .into_iter()
                .map(|e| e.detail)
                .collect();
            dumps
        };
        let mut first = System::boot_with(config.clone());
        let dumps = abort_dumps(&mut first);
        let mut second = System::boot_with_spec(config, first.image());
        let again = abort_dumps(&mut second);
        assert_eq!(dumps, again);
        // Captured before the names were shared.
        let pinned = "JNI ERROR (app bug): global reference table overflow (max=40); \
                      summary: 28 of android::BpBinder, \
                      1 of framework.internal.Callback0, \
                      1 of framework.internal.Callback1, \
                      1 of framework.internal.Callback10, \
                      1 of framework.internal.Callback11";
        assert_eq!(dumps, [pinned, pinned]);
    }

    #[test]
    fn per_method_state_is_dense_but_reported_by_name() {
        // notification's AIDL table puts setConfig1 (16) and
        // updatePolicy1 (21) before enqueueToast (22); by name,
        // enqueueToast comes first.
        let mut system = System::boot(0);
        let a = system.install_app("com.a", []);
        let b = system.install_app("com.b", []);
        let call = |system: &mut System, uid: Uid, method: &str| {
            system
                .call_service(uid, "notification", method, CallOptions::default())
                .unwrap()
                .status
        };
        for _ in 0..2 {
            assert!(call(&mut system, a, "setConfig1").is_completed());
        }
        assert!(call(&mut system, a, "updatePolicy1").is_completed());
        let statuses: Vec<CallStatus> = (0..52)
            .map(|_| call(&mut system, a, "enqueueToast"))
            .collect();
        let rejected = statuses
            .iter()
            .filter(|s| **s == CallStatus::RejectedByServerLimit)
            .count();
        assert_eq!(rejected, 2, "the per-process limit caps com.a at 50");
        for _ in 0..3 {
            assert!(call(&mut system, b, "enqueueToast").is_completed());
        }
        let method_lines = |system: &System| {
            let dump = system.dumpsys("notification").unwrap();
            dump.lines()
                .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
                .skip(1) // the host JGR table line
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        // Only the methods that were called, in name order; rejected
        // calls count as calls.
        assert_eq!(
            method_lines(&system),
            [
                "  enqueueToast: 55 calls, 53 retained",
                "  setConfig1: 2 calls, 0 retained",
                "  updatePolicy1: 1 calls, 0 retained",
            ]
        );
        let fire = |system: &mut System, method: &str| {
            system
                .fire_service_callbacks("notification", method)
                .unwrap()
        };
        assert_eq!(system.retained_entries("notification", "enqueueToast"), 53);
        assert_eq!(fire(&mut system, "enqueueToast"), 53);
        assert_eq!(fire(&mut system, "getState"), 0, "never called");
        assert_eq!(system.retained_entries("notification", "getState"), 0);

        assert_eq!(system.kill_app(a), KillOutcome::Killed);
        assert_eq!(system.retained_entries("notification", "enqueueToast"), 3);
        assert_eq!(fire(&mut system, "enqueueToast"), 3);
        assert_eq!(
            method_lines(&system),
            [
                "  enqueueToast: 55 calls, 3 retained",
                "  setConfig1: 2 calls, 0 retained",
                "  updatePolicy1: 1 calls, 0 retained",
            ]
        );
    }

    /// The resolver test's service pool: system services on both sides
    /// of the Bluetooth app's two (an app host whose crash takes services
    /// out of the directory and shifts the ones after them), PicoTts'
    /// service, and a name no image registers.
    const RESOLVER_SERVICES: [&str; 7] = [
        "audio",
        "bluetooth_adapter",
        "bluetooth_gatt",
        "clipboard",
        "pico_tts",
        "window",
        "no_such_service",
    ];

    /// One step of the resolver test; `service` and `method` pick from
    /// the pools (modulo their lengths), so real and bogus names and
    /// back-to-back repeats, the hint's hits, all occur.
    #[derive(Debug, Clone)]
    enum Step {
        Call {
            app: usize,
            service: usize,
            method: usize,
        },
        Raw {
            app: usize,
            service: usize,
            code: u32,
        },
        Fire {
            service: usize,
            method: usize,
        },
        /// The host of a pool service aborts: an app host takes its
        /// services out of the directory, `system_server` soft-reboots.
        Crash {
            service: usize,
        },
        /// A soft reboot registers every service again.
        Reboot,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            8 => (0..2usize, 0..RESOLVER_SERVICES.len(), 0..8usize)
                .prop_map(|(app, service, method)| Step::Call { app, service, method }),
            4 => (0..2usize, 0..RESOLVER_SERVICES.len(), 0..5u32)
                .prop_map(|(app, service, code)| Step::Raw { app, service, code }),
            2 => (0..RESOLVER_SERVICES.len(), 0..8usize)
                .prop_map(|(service, method)| Step::Fire { service, method }),
            1 => (0..RESOLVER_SERVICES.len()).prop_map(|service| Step::Crash { service }),
            1 => Just(Step::Reboot),
        ]
    }

    /// Per pool service, the method names a step picks from: the
    /// service's first four methods, a method of the exported services
    /// (shared by all three, absent from the rest) and a name no
    /// service declares.
    fn resolver_methods(spec: &AospSpec) -> Vec<Vec<String>> {
        let all = || {
            spec.services
                .iter()
                .chain(spec.prebuilt_apps.iter().flat_map(|a| a.services.iter()))
        };
        RESOLVER_SERVICES
            .iter()
            .map(|&name| {
                let own = all().filter(|s| s.name == name).flat_map(|s| &s.methods);
                own.take(4)
                    .map(|m| m.name.clone())
                    .chain(["getVersion".to_owned(), "noSuchMethod".to_owned()])
                    .collect()
            })
            .collect()
    }

    /// Boots the device the resolver test drives, with one app granted
    /// every grantable permission of the pool and one granted none.
    fn resolver_device(spec: &Rc<AospSpec>) -> (System, [Uid; 2]) {
        let mut system = System::boot_with_spec(SystemConfig::default(), Rc::clone(spec));
        let grantable: BTreeSet<Permission> = spec
            .services
            .iter()
            .filter(|s| RESOLVER_SERVICES.contains(&s.name.as_str()))
            .flat_map(|s| &s.methods)
            .filter_map(|m| m.permission)
            .filter(|p| p.level() != ProtectionLevel::Signature)
            .collect();
        let granted = system.install_app("com.granted", grantable);
        let bare = system.install_app("com.bare", []);
        (system, [granted, bare])
    }

    /// The directory index and method position the binary search and the
    /// method scan give for `service` and `method`.
    fn resolver_oracle(
        system: &System,
        service: &str,
        method: &str,
    ) -> (Option<usize>, Option<usize>) {
        let index = find_service(&system.services, &system.spec, service).ok();
        let position = index.and_then(|i| {
            system.services[i]
                .slot
                .resolve(&system.spec)
                .position(method)
        });
        (index, position)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The by-name entry points resolve through the hint to exactly
        /// what the directory search and the method scan find, and every
        /// outcome, error and logged transaction equals a twin device's
        /// whose hint is spoiled before each step, so that every lookup
        /// takes the search, as before the hint existed.
        #[test]
        fn the_hint_resolves_what_the_directory_search_does(
            steps in proptest::collection::vec(step_strategy(), 1..160)
        ) {
            let spec = Rc::new(AospSpec::android_6_0_1());
            let methods = resolver_methods(&spec);
            let (mut system, apps) = resolver_device(&spec);
            let (mut twin, _) = resolver_device(&spec);
            for step in &steps {
                twin.hint = Hint { index: usize::MAX, position: usize::MAX };
                match *step {
                    Step::Call { app, service, method } => {
                        let name = RESOLVER_SERVICES[service];
                        let method = methods[service][method % methods[service].len()].as_str();
                        let (index, position) = resolver_oracle(&system, name, method);
                        let got = system.call_service(apps[app], name, method, CallOptions::benign());
                        let want = twin.call_service(apps[app], name, method, CallOptions::benign());
                        prop_assert_eq!(&got, &want, "call {}.{}", name, method);
                        match (index, position) {
                            (None, _) => prop_assert_eq!(
                                got,
                                Err(FrameworkError::UnknownService(name.to_owned()))
                            ),
                            (Some(_), None) => prop_assert_eq!(
                                got,
                                Err(FrameworkError::UnknownMethod {
                                    service: name.to_owned(),
                                    method: method.to_owned(),
                                })
                            ),
                            (Some(i), Some(p)) => {
                                prop_assert_eq!((system.hint.index, system.hint.position), (i, p));
                            }
                        }
                    }
                    Step::Raw { app, service, code } => {
                        let name = RESOLVER_SERVICES[service];
                        let (index, _) = resolver_oracle(&system, name, "");
                        let mut parcels = [&mut system, &mut twin].map(|device| {
                            let mut parcel = Parcel::new();
                            if let Some(package) = device.shared_package_of(apps[app]) {
                                parcel.write_string(Rc::clone(package));
                            }
                            if let Ok(node) = device.create_callback_node(apps[app]) {
                                parcel.write_strong_binder(node);
                            }
                            parcel
                        });
                        let [ours, theirs] = &mut parcels;
                        let got = system.transact_raw(apps[app], name, code, ours);
                        let want = twin.transact_raw(apps[app], name, code, theirs);
                        prop_assert_eq!(&got, &want, "transact {} code {}", name, code);
                        match index {
                            None => prop_assert_eq!(
                                got,
                                Err(FrameworkError::UnknownService(name.to_owned()))
                            ),
                            Some(i) => prop_assert_eq!(system.hint.index, i),
                        }
                    }
                    Step::Fire { service, method } => {
                        let name = RESOLVER_SERVICES[service];
                        let method = methods[service][method % methods[service].len()].as_str();
                        let (index, position) = resolver_oracle(&system, name, method);
                        let got = system.fire_service_callbacks(name, method);
                        let want = twin.fire_service_callbacks(name, method);
                        prop_assert_eq!(&got, &want, "fire {}.{}", name, method);
                        match (index, position) {
                            (None, _) => prop_assert_eq!(
                                got,
                                Err(FrameworkError::UnknownService(name.to_owned()))
                            ),
                            (Some(_), None) => prop_assert_eq!(
                                got,
                                Err(FrameworkError::UnknownMethod {
                                    service: name.to_owned(),
                                    method: method.to_owned(),
                                })
                            ),
                            (Some(i), Some(p)) => {
                                prop_assert_eq!((system.hint.index, system.hint.position), (i, p));
                            }
                        }
                    }
                    Step::Crash { service } => {
                        let name = RESOLVER_SERVICES[service];
                        if let Some(host) = system.service_host(name) {
                            system.handle_abort(host);
                            twin.handle_abort(host);
                        }
                    }
                    Step::Reboot => {
                        system.soft_reboot();
                        twin.soft_reboot();
                    }
                }
                prop_assert_eq!(system.services.len(), twin.services.len());
                prop_assert!(system.driver().log() == twin.driver().log(), "logs differ after {:?}", step);
                prop_assert_eq!(system.system_server_jgr_count(), twin.system_server_jgr_count());
            }
        }
    }
}
