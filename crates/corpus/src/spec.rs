//! Ground-truth catalog of the simulated Android 6.0.1.
//!
//! The vulnerable entries are transcribed from the paper:
//!
//! * **Table I** — 44 unprotected vulnerable IPC interfaces across 26
//!   system services, with the required permission and its protection
//!   level.
//! * **Table II** — 9 interfaces "protected" only by a client-side helper
//!   class threshold (all bypassable by talking to Binder directly).
//! * **Table III** — 4 interfaces with a server-side per-process limit, of
//!   which `notification.enqueueToast` is bypassable by spoofing the
//!   package name `"android"` and the display/input three are sound.
//! * **Table IV** — 3 vulnerable IPC methods in 2 of the 88 prebuilt apps
//!   (PicoTts, Bluetooth).
//! * **Table V** — 3 vulnerable apps found among 1000 Google Play apps.
//!
//! Everything else (the other 72 services, their ~2000 innocent IPC
//! methods, the other 86 prebuilt apps, the other 997 Play apps) is
//! generated deterministically so the corpus reaches the paper's scale.
//!
//! Timing constants are chosen so the *shapes* of Figures 3, 5 and 6 hold:
//! per-call execution cost is `base + slope × (retained entries)`, with
//! `audio.startWatchingRoutes` exhausting the 51200-entry table in ≈100 s
//! (the paper's fastest) and `notification.enqueueToast` in ≈1800 s (the
//! slowest), the rest log-spaced in between.

use std::collections::BTreeSet;

use serde::Serialize;

use crate::fnv;

/// Hard cap on JNI global references per runtime (see
/// [`jgre-art`](https://docs.rs)'s `MAX_GLOBAL_REFS`; duplicated here so the
/// corpus crate stays dependency-free).
pub const JGR_CAP: usize = 51_200;

/// Android permission protection levels relevant to the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum ProtectionLevel {
    /// Granted automatically at install time.
    Normal,
    /// Requires explicit user consent.
    Dangerous,
    /// Only grantable to apps signed with the platform key — third-party
    /// apps can never hold these, so the PScout-style permission filter
    /// (§III-C.3) removes methods guarded by them from the risky set.
    Signature,
}

/// The permissions appearing in the paper's Table I, plus the ones our
/// catalog assigns to the Table II services (the paper does not list
/// those; see DESIGN.md §5 for the assignment rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Permission {
    /// `ACCESS_FINE_LOCATION` (dangerous).
    AccessFineLocation,
    /// `USE_SIP` (dangerous).
    UseSip,
    /// `READ_PHONE_STATE` (dangerous).
    ReadPhoneState,
    /// `BLUETOOTH` (normal).
    Bluetooth,
    /// `WAKE_LOCK` (normal).
    WakeLock,
    /// `GET_PACKAGE_SIZE` (normal).
    GetPackageSize,
    /// `CHANGE_NETWORK_STATE` (normal).
    ChangeNetworkState,
    /// `ACCESS_NETWORK_STATE` (normal).
    AccessNetworkState,
    /// `MANAGE_USERS` (normal) — assigned to `launcherapps`.
    ManageUsers,
    /// `INTERNET` (normal) — used by generated innocent methods.
    Internet,
    /// `VIBRATE` (normal) — used by generated innocent methods.
    Vibrate,
    /// `WRITE_SECURE_SETTINGS` (signature) — guards retaining methods that
    /// are nevertheless *not* vulnerable because no third-party app can
    /// hold the permission.
    WriteSecureSettings,
    /// `DEVICE_POWER` (signature).
    DevicePower,
}

impl Permission {
    /// The AOSP protection level of this permission.
    pub fn level(self) -> ProtectionLevel {
        match self {
            Permission::AccessFineLocation | Permission::UseSip | Permission::ReadPhoneState => {
                ProtectionLevel::Dangerous
            }
            Permission::WriteSecureSettings | Permission::DevicePower => ProtectionLevel::Signature,
            _ => ProtectionLevel::Normal,
        }
    }

    /// The AOSP manifest name.
    pub fn manifest_name(self) -> &'static str {
        match self {
            Permission::AccessFineLocation => "android.permission.ACCESS_FINE_LOCATION",
            Permission::UseSip => "android.permission.USE_SIP",
            Permission::ReadPhoneState => "android.permission.READ_PHONE_STATE",
            Permission::Bluetooth => "android.permission.BLUETOOTH",
            Permission::WakeLock => "android.permission.WAKE_LOCK",
            Permission::GetPackageSize => "android.permission.GET_PACKAGE_SIZE",
            Permission::ChangeNetworkState => "android.permission.CHANGE_NETWORK_STATE",
            Permission::AccessNetworkState => "android.permission.ACCESS_NETWORK_STATE",
            Permission::ManageUsers => "android.permission.MANAGE_USERS",
            Permission::Internet => "android.permission.INTERNET",
            Permission::Vibrate => "android.permission.VIBRATE",
            Permission::WriteSecureSettings => "android.permission.WRITE_SECURE_SETTINGS",
            Permission::DevicePower => "android.permission.DEVICE_POWER",
        }
    }
}

/// How an IPC handler treats the binder objects it receives — the fact the
/// paper's sift rules (§III-C.3) classify on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JgrBehavior {
    /// The handler stores received binders in a member collection; the JNI
    /// global references live until the caller's process dies. **This is
    /// the vulnerable pattern.**
    RetainPerCall {
        /// Global references created per call (listener + death recipient
        /// pairs etc.).
        grefs_per_call: u32,
    },
    /// Sift rules 2–3: the binder is used only inside the call (or as a
    /// read-only map key); GC collects it afterwards.
    Transient,
    /// Sift rule 4: the binder is assigned to a single member field; a
    /// repeat call from the same app replaces (and releases) the previous
    /// one, so at most one reference per caller accumulates.
    ReplaceSingle,
    /// Sift rule 1: only `Thread.nativeCreate`, whose native side releases
    /// the reference immediately.
    ThreadCreateOnly,
    /// The handler never touches a JGR entry point.
    NoJgr,
}

impl JgrBehavior {
    /// Whether this behaviour accumulates unbounded global references.
    pub fn retains_unbounded(self) -> bool {
        matches!(self, JgrBehavior::RetainPerCall { .. })
    }
}

/// A flaw in a server-side protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Flaw {
    /// `NotificationManagerService.enqueueToast` trusts the caller-supplied
    /// package name: passing `"android"` marks the toast as a system toast
    /// and skips the per-package cap (Code-Snippet 3).
    SystemPackageSpoof,
}

/// Protection applied to an IPC method against excessive JGR requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Protection {
    /// Nothing — Table I's 44 interfaces.
    None,
    /// A threshold enforced in the *client-side* helper class
    /// (Code-Snippet 1). Malicious apps bypass it by calling Binder
    /// directly (Code-Snippet 2) — Table II's 9 interfaces.
    HelperThreshold {
        /// Helper class name, e.g. `"WifiManager"`.
        helper_class: String,
        /// Maximum retained entries the helper allows per process
        /// (`MAX_ACTIVE_LOCKS` is 50 for wifi).
        limit: u32,
    },
    /// A per-process cap enforced inside the service — Table III. Sound
    /// unless `flaw` is set.
    PerProcessLimit {
        /// Maximum retained entries per calling process.
        limit: u32,
        /// An implementation flaw making the cap bypassable.
        flaw: Option<Flaw>,
    },
}

impl Protection {
    /// Whether any protection (sound or not) exists — the paper's "13
    /// interfaces have been protected".
    pub fn exists(&self) -> bool {
        !matches!(self, Protection::None)
    }

    /// Whether the protection actually stops a malicious app that talks to
    /// Binder directly.
    pub fn is_effective_server_side(&self) -> bool {
        matches!(self, Protection::PerProcessLimit { flaw: None, .. })
    }
}

/// Execution-cost model of one IPC method.
///
/// Cost of the n-th call (with `n` entries already retained for this
/// interface) is `base_us + slope_us_per_entry × n ± jitter_us`; the JGR
/// entry is created `delay_us` after the handler starts (the paper's
/// `Delay` constant of Observation 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostParams {
    /// Fixed handler cost, µs.
    pub base_us: u64,
    /// Marginal cost per already-retained entry, µs (Figure 5's growth).
    pub slope_us_per_entry: f64,
    /// Half-width of the uniform jitter band, µs (the paper's Δ).
    pub jitter_us: u64,
    /// Constant latency from call start to JGR creation, µs (the paper's
    /// `Delay`).
    pub delay_us: u64,
}

impl CostParams {
    /// A flat, cheap cost for innocent methods.
    pub fn innocent(base_us: u64) -> Self {
        Self {
            base_us,
            slope_us_per_entry: 0.0,
            jitter_us: base_us / 5,
            delay_us: base_us / 2,
        }
    }

    /// Expected cost (µs, jitter-free) of a call when `entries` are
    /// already retained.
    pub fn expected_us(&self, entries: usize) -> u64 {
        self.base_us + (self.slope_us_per_entry * entries as f64).round() as u64
    }

    /// Expected virtual time (µs) to drive a table from empty to `cap`
    /// entries at `grefs_per_call` per call, including the mean jitter.
    pub fn expected_exhaustion_us(&self, cap: usize, grefs_per_call: u32) -> u64 {
        let g = grefs_per_call.max(1) as u64;
        let calls = (cap as u64).div_ceil(g);
        let mut total = 0u64;
        // Closed form of sum(base + E[jitter] + slope * g * k) over
        // k in 0..calls.
        total += (self.base_us + self.jitter_us / 2) * calls;
        total += (self.slope_us_per_entry * g as f64 * (calls as f64) * (calls as f64 - 1.0) / 2.0)
            .round() as u64;
        total
    }
}

/// One IPC method of a service (or of a prebuilt app's exported service).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MethodSpec {
    /// Method name as it appears in the AIDL interface.
    pub name: String,
    /// Permission a third-party caller must hold, if any.
    pub permission: Option<Permission>,
    /// Anti-JGRE protection, if any.
    pub protection: Protection,
    /// How the handler treats received binders.
    pub jgr: JgrBehavior,
    /// Execution-cost model.
    pub cost: CostParams,
}

impl MethodSpec {
    /// Whether a third-party app can ever invoke this method: true unless
    /// it is guarded by a signature-level permission.
    pub fn callable_by_third_party(&self) -> bool {
        self.permission
            .is_none_or(|p| p.level() != ProtectionLevel::Signature)
    }

    /// Ground truth: can a malicious third-party app use this method to
    /// grow the host's JGR table without bound? (Normal/dangerous
    /// permissions may still gate *which* apps can; see
    /// [`Self::permission`].)
    pub fn is_vulnerable(&self) -> bool {
        self.jgr.retains_unbounded()
            && !self.protection.is_effective_server_side()
            && self.callable_by_third_party()
    }

    /// Vulnerable and callable with zero permissions.
    pub fn is_zero_permission_vulnerable(&self) -> bool {
        self.is_vulnerable() && self.permission.is_none()
    }
}

/// One system service (or app-exported service).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceSpec {
    /// Registered name, e.g. `"clipboard"`.
    pub name: String,
    /// AIDL interface descriptor, e.g. `"IClipboard"`.
    pub interface: String,
    /// Whether the service is implemented in native code (5 of the 104;
    /// they register via `ServiceManager::addService` in C++).
    pub native: bool,
    /// Exposed IPC methods.
    pub methods: Vec<MethodSpec>,
}

impl ServiceSpec {
    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&MethodSpec> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Position of a method in the AIDL table (its transaction code is
    /// `FIRST_CALL_TRANSACTION` plus this).
    pub fn position(&self, name: &str) -> Option<usize> {
        self.methods.iter().position(|m| m.name == name)
    }

    /// Whether any method is vulnerable.
    pub fn is_vulnerable(&self) -> bool {
        self.methods.iter().any(MethodSpec::is_vulnerable)
    }

    /// Whether the service can be attacked with zero permissions.
    pub fn is_zero_permission_vulnerable(&self) -> bool {
        self.methods
            .iter()
            .any(MethodSpec::is_zero_permission_vulnerable)
    }
}

/// A prebuilt (system image) app; some export IPC services of their own.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppSpec {
    /// Display name, e.g. `"Bluetooth"`.
    pub name: String,
    /// Package, e.g. `"com.android.bluetooth"`.
    pub package: String,
    /// AOSP source path, e.g. `"packages/apps/Bluetooth"`.
    pub code_path: String,
    /// IPC services the app exports to third parties (empty for most).
    pub services: Vec<ServiceSpec>,
}

impl AppSpec {
    /// Whether the app exports at least one vulnerable IPC method.
    pub fn is_vulnerable(&self) -> bool {
        self.services.iter().any(ServiceSpec::is_vulnerable)
    }
}

/// A Google Play (third-party) app from the paper's 1000-app sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThirdPartyAppSpec {
    /// Display name.
    pub name: String,
    /// Package name.
    pub package: String,
    /// Install-count band as Play reports it, e.g. `"1e6-5e6"`.
    pub downloads: String,
    /// The vulnerable exported interface/method, if any (Table V).
    pub vulnerable_interface: Option<(String, String)>,
}

/// The complete ground-truth model of the analysed device image.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AospSpec {
    /// All 104 system services.
    pub services: Vec<ServiceSpec>,
    /// All 88 prebuilt apps.
    pub prebuilt_apps: Vec<AppSpec>,
    /// The 1000 Play-store apps of the Table V sweep.
    pub third_party_apps: Vec<ThirdPartyAppSpec>,
}

impl AospSpec {
    /// Builds the full Android 6.0.1 catalog.
    ///
    /// # Example
    ///
    /// ```
    /// let aosp = jgre_corpus::spec::AospSpec::android_6_0_1();
    /// let vulnerable_services: std::collections::BTreeSet<_> = aosp
    ///     .vulnerable_service_interfaces()
    ///     .map(|(s, _)| s.name.as_str())
    ///     .collect();
    /// assert_eq!(vulnerable_services.len(), 32);
    /// ```
    pub fn android_6_0_1() -> Self {
        build_catalog()
    }

    /// Finds a system service by registered name.
    pub fn service(&self, name: &str) -> Option<&ServiceSpec> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Finds a prebuilt app by display name.
    pub fn prebuilt_app(&self, name: &str) -> Option<&AppSpec> {
        self.prebuilt_apps.iter().find(|a| a.name == name)
    }

    /// All `(service, method)` pairs vulnerable in *system services*
    /// (the paper's 54).
    pub fn vulnerable_service_interfaces(
        &self,
    ) -> impl Iterator<Item = (&ServiceSpec, &MethodSpec)> {
        self.services.iter().flat_map(|s| {
            s.methods
                .iter()
                .filter(|m| m.is_vulnerable())
                .map(move |m| (s, m))
        })
    }

    /// All `(app, service, method)` triples vulnerable in prebuilt apps
    /// (the paper's 3).
    pub fn vulnerable_prebuilt_interfaces(
        &self,
    ) -> impl Iterator<Item = (&AppSpec, &ServiceSpec, &MethodSpec)> {
        self.prebuilt_apps.iter().flat_map(|a| {
            a.services.iter().flat_map(move |s| {
                s.methods
                    .iter()
                    .filter(|m| m.is_vulnerable())
                    .map(move |m| (a, s, m))
            })
        })
    }

    /// Names of the system services attackable with zero permissions
    /// (the paper's 22).
    pub fn zero_permission_vulnerable_services(&self) -> BTreeSet<&str> {
        self.services
            .iter()
            .filter(|s| s.is_zero_permission_vulnerable())
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Total number of IPC methods exposed by system services.
    pub fn total_ipc_methods(&self) -> usize {
        self.services.iter().map(|s| s.methods.len()).sum()
    }
}

// --------------------------------------------------------------------------
// Catalog construction
// --------------------------------------------------------------------------

/// Derives the cost parameters that exhaust the table in ~`target_secs` of
/// virtual time at `grefs_per_call` references per call, with base kept
/// under the Figure 6 envelope (≤ ~6 ms for the first 1000 calls).
fn vulnerable_cost(name_key: &str, target_secs: u64, grefs_per_call: u32) -> CostParams {
    let g = grefs_per_call.max(1) as u64;
    let calls = (JGR_CAP as u64).div_ceil(g);
    let t_us = target_secs * 1_000_000;
    let per_call_budget = t_us / calls;
    let h = fnv(name_key);
    // Δ spread per interface: 100–3500 µs (Figure 6's envelope), mean near
    // the paper's 1.8 ms, but capped so the mean jitter fits the exhaustion
    // budget. The fastest interface gets a pinned small deviation so its
    // fixed per-call cost is the minimum at any table scale.
    let jitter_us = if name_key == "audio.startWatchingRoutes" {
        300
    } else {
        (100 + h % 3_400).min(per_call_budget.saturating_mul(6) / 5)
    };
    // The paper's fastest interface gets the floor base cost so it stays
    // the fastest at any table scale (slope dominates its budget).
    let base_us = if name_key == "audio.startWatchingRoutes" {
        200
    } else {
        (t_us / (5 * calls)).clamp(200, 5_500)
    };
    // The slope absorbs whatever budget the fixed costs (base + mean
    // jitter) leave, so the expected exhaustion time hits the target.
    let fixed_us = base_us + jitter_us / 2;
    let remainder = t_us.saturating_sub(fixed_us * calls) as f64;
    let slope = 2.0 * remainder / (g as f64 * calls as f64 * (calls as f64 - 1.0));
    // Delay constant (IPC call → JGR creation): 100–3000 µs for most
    // interfaces. Three interfaces create their references through slow
    // asynchronous machinery (server process spawn, session setup); their
    // large Delay is why §V-D.1 reports detection taking more than one
    // second for exactly three interfaces, with
    // `midi.registerDeviceServer` the slowest at ≈3.6 s.
    let delay_us = match name_key {
        // Slower than any handler execution: creation effectively lands at
        // handler completion, so the observed IPC→JGR latency tracks the
        // (growing, widely spread) execution time — the defender must
        // escalate to its widest correlation window.
        "midi.registerDeviceServer" => 25_000,
        "sip.open3" => 7_500,
        "print.createPrinterDiscoverySession" => 8_300,
        _ => 100 + (h >> 17) % 2_900,
    };
    CostParams {
        base_us,
        slope_us_per_entry: slope,
        jitter_us,
        delay_us,
    }
}

struct VulnRow {
    service: &'static str,
    method: &'static str,
    permission: Option<Permission>,
    protection: Protection,
    grefs_per_call: u32,
    /// Pinned exhaustion target (secs); `None` = log-spaced.
    target_secs: Option<u64>,
}

fn vuln(service: &'static str, method: &'static str, permission: Option<Permission>) -> VulnRow {
    VulnRow {
        service,
        method,
        permission,
        protection: Protection::None,
        grefs_per_call: 1,
        target_secs: None,
    }
}

fn helper(
    service: &'static str,
    method: &'static str,
    permission: Option<Permission>,
    helper_class: &'static str,
    limit: u32,
) -> VulnRow {
    VulnRow {
        service,
        method,
        permission,
        protection: Protection::HelperThreshold {
            helper_class: helper_class.to_owned(),
            limit,
        },
        grefs_per_call: 1,
        target_secs: None,
    }
}

/// Table I — the 44 unprotected vulnerable interfaces, verbatim.
fn table1_rows() -> Vec<VulnRow> {
    use Permission::*;
    let mut rows = vec![
        vuln("location", "addGpsStatusListener", Some(AccessFineLocation)),
        vuln("sip", "open3", Some(UseSip)),
        vuln("sip", "createSession", Some(UseSip)),
        vuln("midi", "registerListener", None),
        vuln("midi", "openDevice", None),
        vuln("midi", "openBluetoothDevice", None),
        vuln("midi", "registerDeviceServer", None),
        vuln("content", "registerContentObserver", None),
        vuln("content", "addStatusChangeListener", None),
        vuln("mount", "registerListener", None),
        vuln("appops", "startWatchingMode", None),
        vuln("appops", "getToken", None),
        vuln("bluetooth_manager", "registerAdapter", None),
        vuln(
            "bluetooth_manager",
            "registerStateChangeCallback",
            Some(Bluetooth),
        ),
        // The paper's Table I lists bindBluetoothProfileService twice
        // (two overloads); we keep both with disambiguated names.
        vuln("bluetooth_manager", "bindBluetoothProfileService", None),
        vuln("bluetooth_manager", "bindBluetoothProfileService2", None),
        vuln("audio", "registerRemoteController", None),
        vuln("audio", "startWatchingRoutes", None),
        vuln("country_detector", "addCountryListener", None),
        vuln("power", "acquireWakeLock", Some(WakeLock)),
        vuln("input_method", "addClient", None),
        vuln(
            "accessibility",
            "addAccessibilityInteractionConnection",
            None,
        ),
        vuln("print", "print", None),
        vuln("print", "addPrintJobStateChangeListener", None),
        vuln("print", "createPrinterDiscoverySession", None),
        vuln("package", "getPackageSizeInfo", Some(GetPackageSize)),
        vuln(
            "telephony.registry",
            "addOnSubscriptionsChangedListener",
            Some(ReadPhoneState),
        ),
        vuln("telephony.registry", "listen", Some(ReadPhoneState)),
        vuln(
            "telephony.registry",
            "listenForSubscriber",
            Some(ReadPhoneState),
        ),
        vuln("media_session", "registerCallbackListener", None),
        vuln("media_session", "createSession", None),
        vuln("media_router", "registerClientAsUser", None),
        vuln("media_projection", "registerCallback", None),
        vuln("input", "vibrate", None),
        vuln("window", "watchRotation", None),
        vuln("wallpaper", "getWallpaper", None),
        vuln("fingerprint", "addLockoutResetCallback", None),
        vuln("textservices", "getSpellCheckerService", None),
        vuln(
            "network_management",
            "registerNetworkActivityListener",
            Some(ChangeNetworkState),
        ),
        vuln("connectivity", "requestNetwork", Some(ChangeNetworkState)),
        vuln("connectivity", "listenForNetwork", Some(AccessNetworkState)),
        vuln("activity", "registerTaskStackListener", None),
        vuln("activity", "registerReceiver", None),
        vuln("activity", "bindService", None),
    ];
    // Pinned timing shapes (see module docs): fastest / slowest / Figure 5
    // subject / the slow-to-detect midi interface (many refs per call).
    for row in &mut rows {
        match (row.service, row.method) {
            ("audio", "startWatchingRoutes") => row.target_secs = Some(100),
            ("telephony.registry", "listenForSubscriber") => row.target_secs = Some(1_500),
            ("midi", "registerDeviceServer") => {
                row.grefs_per_call = 4;
                row.target_secs = Some(400);
            }
            // The other two slow-to-detect interfaces (§V-D.1): pinned
            // slow enough that their base cost rides the clamp, so the
            // observed IPC→JGR latency approaches their large Delay.
            ("sip", "open3") => row.target_secs = Some(1_550),
            ("print", "createPrinterDiscoverySession") => row.target_secs = Some(1_450),
            _ => {}
        }
    }
    rows
}

/// Table II — 9 interfaces whose only protection is a helper-class
/// threshold; plus Table III's notification row (flawed per-process limit).
fn table2_and_3_rows() -> Vec<VulnRow> {
    use Permission::*;
    let mut rows = vec![
        helper(
            "clipboard",
            "addPrimaryClipChangedListener",
            None,
            "ClipboardManager",
            16,
        ),
        helper(
            "accessibility",
            "addClient",
            None,
            "AccessibilityManager",
            16,
        ),
        helper(
            "launcherapps",
            "addOnAppsChangedListener",
            Some(ManageUsers),
            "LauncherApps",
            16,
        ),
        helper("tv_input", "registerCallback", None, "TvInputManager", 16),
        helper(
            "ethernet",
            "addListener",
            Some(AccessNetworkState),
            "EthernetManager",
            16,
        ),
        // MAX_ACTIVE_LOCKS = 50 in WifiManager.java (Code-Snippet 1).
        helper("wifi", "acquireWifiLock", Some(WakeLock), "WifiManager", 50),
        helper(
            "wifi",
            "acquireMulticastLock",
            Some(WakeLock),
            "WifiManager",
            50,
        ),
        helper(
            "location",
            "addGpsMeasurementsListener",
            Some(AccessFineLocation),
            "LocationManager",
            16,
        ),
        helper(
            "location",
            "addGpsNavigationMessageListener",
            Some(AccessFineLocation),
            "LocationManager",
            16,
        ),
    ];
    // Table III, row 1: enqueueToast's per-package cap is bypassable by
    // claiming to be the "android" package (Code-Snippet 3). It is also the
    // paper's slowest exhaustion (≈1800 s, Figure 3).
    rows.push(VulnRow {
        service: "notification",
        method: "enqueueToast",
        permission: None,
        protection: Protection::PerProcessLimit {
            limit: 50,
            flaw: Some(Flaw::SystemPackageSpoof),
        },
        grefs_per_call: 1,
        target_secs: Some(1_800),
    });
    rows
}

/// Table III rows 2–4: correctly protected interfaces. They *would* retain
/// per call, but the server-side cap is sound, so `is_vulnerable()` is
/// false — the static detector still flags them risky, and dynamic
/// verification clears them, as in the paper.
fn sound_per_process_rows() -> Vec<VulnRow> {
    [
        ("display", "registerCallback", 1u32),
        ("input", "registerInputDevicesChangedListener", 1),
        ("input", "registerTabletModeChangedListener", 1),
    ]
    .into_iter()
    .map(|(service, method, limit)| VulnRow {
        service,
        method,
        permission: None,
        protection: Protection::PerProcessLimit { limit, flaw: None },
        grefs_per_call: 1,
        target_secs: Some(600),
    })
    .collect()
}

/// The 104 registered system services of the simulated 6.0.1 image.
/// The five `native: true` entries register through the C++
/// `ServiceManager::addService`.
const SERVICE_NAMES: [(&str, bool); 104] = [
    ("accessibility", false),
    ("account", false),
    ("activity", false),
    ("alarm", false),
    ("appops", false),
    ("appwidget", false),
    ("assetatlas", false),
    ("audio", false),
    ("backup", false),
    ("battery", false),
    ("batteryproperties", false),
    ("batterystats", false),
    ("bluetooth_manager", false),
    ("carrier_config", false),
    ("clipboard", false),
    ("commontime_management", false),
    ("connectivity", false),
    ("consumer_ir", false),
    ("content", false),
    ("country_detector", false),
    ("cpuinfo", false),
    ("dbinfo", false),
    ("device_policy", false),
    ("deviceidle", false),
    ("devicestoragemonitor", false),
    ("diskstats", false),
    ("display", false),
    ("dreams", false),
    ("dropbox", false),
    ("ethernet", false),
    ("fingerprint", false),
    ("gfxinfo", false),
    ("graphicsstats", false),
    ("hardware", false),
    ("imms", false),
    ("input", false),
    ("input_method", false),
    ("iphonesubinfo", false),
    ("isms", false),
    ("isub", false),
    ("jobscheduler", false),
    ("launcherapps", false),
    ("location", false),
    ("lock_settings", false),
    ("media.audio_flinger", true),
    ("media.audio_policy", true),
    ("media.camera", true),
    ("media.player", true),
    ("media_projection", false),
    ("media_router", false),
    ("media_session", false),
    ("meminfo", false),
    ("midi", false),
    ("mount", false),
    ("netpolicy", false),
    ("netstats", false),
    ("network_management", false),
    ("network_score", false),
    ("network_time_update_service", false),
    ("notification", false),
    ("oem_lock", false),
    ("package", false),
    ("permission", false),
    ("persistent_data_block", false),
    ("phone", false),
    ("pinner", false),
    ("power", false),
    ("print", false),
    ("processinfo", false),
    ("procstats", false),
    ("recovery", false),
    ("restrictions", false),
    ("rttmanager", false),
    ("samplingprofiler", false),
    ("scheduling_policy", false),
    ("search", false),
    ("sensorservice", true),
    ("serial", false),
    ("servicediscovery", false),
    ("simphonebook", false),
    ("sip", false),
    ("soundtrigger", false),
    ("statusbar", false),
    ("telecom", false),
    ("telephony.registry", false),
    ("textservices", false),
    ("trust", false),
    ("tv_input", false),
    ("uimode", false),
    ("updatelock", false),
    ("usagestats", false),
    ("usb", false),
    ("user", false),
    ("vibrator", false),
    ("voiceinteraction", false),
    ("wallpaper", false),
    ("webviewupdate", false),
    ("wifi", false),
    ("wifip2p", false),
    ("wifiscanner", false),
    ("window", false),
    ("media_focus", false),
    ("print_spooler_bridge", false),
    ("textclassification", false),
];

/// AIDL interface names for the services the paper names; the rest are
/// derived mechanically.
fn interface_for(service: &str) -> String {
    let named = [
        ("accessibility", "IAccessibilityManager"),
        ("activity", "IActivityManager"),
        ("appops", "IAppOpsService"),
        ("audio", "IAudioService"),
        ("bluetooth_manager", "IBluetoothManager"),
        ("clipboard", "IClipboard"),
        ("connectivity", "IConnectivityManager"),
        ("content", "IContentService"),
        ("country_detector", "ICountryDetector"),
        ("display", "IDisplayManager"),
        ("ethernet", "IEthernetManager"),
        ("fingerprint", "IFingerprintService"),
        ("input", "IInputManager"),
        ("input_method", "IInputMethodManager"),
        ("launcherapps", "ILauncherApps"),
        ("location", "ILocationManager"),
        ("media_projection", "IMediaProjectionManager"),
        ("media_router", "IMediaRouterService"),
        ("media_session", "ISessionManager"),
        ("midi", "IMidiManager"),
        ("mount", "IMountService"),
        ("network_management", "INetworkManagementService"),
        ("notification", "INotificationManager"),
        ("package", "IPackageManager"),
        ("power", "IPowerManager"),
        ("print", "IPrintManager"),
        ("sip", "ISipService"),
        ("telephony.registry", "ITelephonyRegistry"),
        ("textservices", "ITextServicesManager"),
        ("tv_input", "ITvInputManager"),
        ("wallpaper", "IWallpaperManager"),
        ("wifi", "IWifiManager"),
        ("window", "IWindowManager"),
    ];
    if let Some((_, iface)) = named.iter().find(|(n, _)| *n == service) {
        return (*iface).to_owned();
    }
    // Mechanical: "network_score" -> "INetworkScore".
    let mut out = String::from("I");
    for part in service.split(['_', '.']) {
        let mut chars = part.chars();
        if let Some(first) = chars.next() {
            out.extend(first.to_uppercase());
            out.push_str(chars.as_str());
        }
    }
    out
}

/// Generated innocent-method name pool.
const INNOCENT_STEMS: [&str; 15] = [
    "getState",
    "setConfig",
    "queryInfo",
    "isEnabled",
    "notifyChange",
    "dump",
    "updatePolicy",
    "removeEntry",
    "listEntries",
    "checkAccess",
    "applySettings",
    "resetStats",
    "fetchStatus",
    "syncData",
    "describeContents",
];

fn innocent_methods(service: &str, count: usize) -> Vec<MethodSpec> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let stem = INNOCENT_STEMS[i % INNOCENT_STEMS.len()];
        let name = if i < INNOCENT_STEMS.len() {
            stem.to_owned()
        } else {
            format!("{stem}{}", i / INNOCENT_STEMS.len())
        };
        let h = fnv(&format!("{service}.{name}"));
        // Mostly no JGR at all; a sprinkle of the innocent JGR patterns the
        // sift rules must clear.
        let jgr = match h % 20 {
            0..=13 => JgrBehavior::NoJgr,
            14..=16 => JgrBehavior::Transient,
            17..=18 => JgrBehavior::ReplaceSingle,
            _ => JgrBehavior::ThreadCreateOnly,
        };
        let permission = match h % 11 {
            0 => Some(Permission::Internet),
            1 => Some(Permission::Vibrate),
            _ => None,
        };
        out.push(MethodSpec {
            name,
            permission,
            protection: Protection::None,
            jgr,
            cost: CostParams::innocent(100 + h % 700),
        });
    }
    out
}

fn build_catalog() -> AospSpec {
    // 1. Collect the vulnerable rows and assign exhaustion targets.
    let mut rows: Vec<VulnRow> = Vec::new();
    rows.extend(table1_rows());
    rows.extend(table2_and_3_rows());
    let risky_sound = sound_per_process_rows();

    // Log-space unpinned targets across (100, 1800) exclusive, ordered by a
    // stable hash so the spread looks organic in Figure 3.
    let mut unpinned: Vec<usize> = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.target_secs.is_none())
        .map(|(i, _)| i)
        .collect();
    unpinned.sort_by_key(|&i| fnv(&format!("{}.{}", rows[i].service, rows[i].method)));
    let n = unpinned.len();
    for (rank, &idx) in unpinned.iter().enumerate() {
        let lo = 110.0_f64;
        let hi = 1_700.0_f64;
        let t = lo * (hi / lo).powf(rank as f64 / (n.max(2) - 1) as f64);
        rows[idx].target_secs = Some(t.round() as u64);
    }

    // 2. Materialise services.
    let mut services: Vec<ServiceSpec> = SERVICE_NAMES
        .iter()
        .map(|&(name, native)| {
            let h = fnv(name);
            let innocent_count = if native {
                6 + (h % 6) as usize
            } else {
                16 + (h % 16) as usize
            };
            ServiceSpec {
                name: name.to_owned(),
                interface: interface_for(name),
                native,
                methods: innocent_methods(name, innocent_count),
            }
        })
        .collect();

    let mut push_method = |service: &str, m: MethodSpec| {
        services
            .iter_mut()
            .find(|s| s.name == service)
            .unwrap_or_else(|| panic!("unknown service in vulnerability table: {service}"))
            .methods
            .push(m);
    };

    for row in rows.iter().chain(risky_sound.iter()) {
        let key = format!("{}.{}", row.service, row.method);
        let cost = vulnerable_cost(
            &key,
            row.target_secs.expect("targets assigned above"),
            row.grefs_per_call,
        );
        push_method(
            row.service,
            MethodSpec {
                name: row.method.to_owned(),
                permission: row.permission,
                protection: row.protection.clone(),
                jgr: JgrBehavior::RetainPerCall {
                    grefs_per_call: row.grefs_per_call,
                },
                cost,
            },
        );
    }

    // Retaining methods behind signature permissions: statically they look
    // exactly like the vulnerable ones, but the PScout-style permission
    // filter must remove them (third-party apps can never hold the
    // permission), so they are not among the 54.
    push_method(
        "device_policy",
        MethodSpec {
            name: "addPolicyStatusListener".to_owned(),
            permission: Some(Permission::WriteSecureSettings),
            protection: Protection::None,
            jgr: JgrBehavior::RetainPerCall { grefs_per_call: 1 },
            cost: vulnerable_cost("device_policy.addPolicyStatusListener", 600, 1),
        },
    );
    push_method(
        "batterystats",
        MethodSpec {
            name: "registerStatsListener".to_owned(),
            permission: Some(Permission::DevicePower),
            protection: Protection::None,
            jgr: JgrBehavior::RetainPerCall { grefs_per_call: 1 },
            cost: vulnerable_cost("batterystats.registerStatsListener", 600, 1),
        },
    );

    // 3. Prebuilt apps (Table IV + 86 innocuous ones).
    let prebuilt_apps = build_prebuilt_apps();

    // 4. Third-party apps (Table V + 997 innocuous ones).
    let third_party_apps = build_third_party_apps();

    AospSpec {
        services,
        prebuilt_apps,
        third_party_apps,
    }
}

fn exported_service(name: &str, interface: &str, method: &str, target_secs: u64) -> ServiceSpec {
    ServiceSpec {
        name: name.to_owned(),
        interface: interface.to_owned(),
        native: false,
        methods: vec![
            MethodSpec {
                name: method.to_owned(),
                permission: None,
                protection: Protection::None,
                jgr: JgrBehavior::RetainPerCall { grefs_per_call: 1 },
                cost: vulnerable_cost(&format!("{name}.{method}"), target_secs, 1),
            },
            MethodSpec {
                name: "getVersion".to_owned(),
                permission: None,
                protection: Protection::None,
                jgr: JgrBehavior::NoJgr,
                cost: CostParams::innocent(150),
            },
        ],
    }
}

fn build_prebuilt_apps() -> Vec<AppSpec> {
    let mut apps = vec![
        AppSpec {
            name: "Bluetooth".to_owned(),
            package: "com.android.bluetooth".to_owned(),
            code_path: "packages/apps/Bluetooth".to_owned(),
            services: vec![
                exported_service("bluetooth_gatt", "IBluetoothGatt", "registerServer", 450),
                exported_service("bluetooth_adapter", "IBluetooth", "registerCallback", 700),
            ],
        },
        AppSpec {
            name: "PicoTts".to_owned(),
            package: "com.svox.pico".to_owned(),
            code_path: "external/svox/pico".to_owned(),
            // PicoService inherits android.speech.tts.TextToSpeechService,
            // whose default setCallback() implementation leaks.
            services: vec![exported_service(
                "pico_tts",
                "ITextToSpeechService",
                "setCallback",
                550,
            )],
        },
    ];
    let real_names = [
        "Browser",
        "Calculator",
        "Calendar",
        "Camera2",
        "CaptivePortalLogin",
        "CellBroadcast",
        "CertInstaller",
        "Contacts",
        "DeskClock",
        "Dialer",
        "DocumentsUI",
        "DownloadProvider",
        "Email",
        "Exchange",
        "ExternalStorageProvider",
        "Gallery2",
        "HTMLViewer",
        "InputDevices",
        "KeyChain",
        "Launcher3",
        "ManagedProvisioning",
        "MediaProvider",
        "Messaging",
        "Music",
        "MusicFX",
        "Nfc",
        "PackageInstaller",
        "PhoneCommon",
        "PrintSpooler",
        "QuickSearchBox",
        "Settings",
        "SettingsProvider",
        "Shell",
        "SoundRecorder",
        "Stk",
        "SystemUI",
        "TeleService",
        "TelephonyProvider",
        "UserDictionaryProvider",
        "VpnDialogs",
        "WallpaperCropper",
        "WebViewGoogle",
        "BasicDreams",
        "BackupRestoreConfirmation",
        "BlockedNumberProvider",
        "BookmarkProvider",
        "CalendarProvider",
        "CallLogBackup",
        "CarrierConfig",
        "CompanionLink",
        "ContactsProvider",
        "DefaultContainerService",
        "DeviceInfo",
        "DocumentsProvider",
        "DownloadProviderUi",
        "EasterEgg",
        "EmergencyInfo",
        "FusedLocation",
        "HoloSpiralWallpaper",
        "InCallUI",
        "InputMethodLatin",
        "LiveWallpapersPicker",
        "MmsService",
        "MtpDocumentsProvider",
        "NfcNci",
        "OneTimeInitializer",
        "PacProcessor",
        "PhaseBeam",
        "PhotoTable",
        "ProxyHandler",
        "SecureElement",
        "SharedStorageBackup",
        "SimAppDialog",
        "StorageManager",
        "Tag",
        "Telecom",
        "TtsService",
        "TvSettings",
        "VoiceDialer",
        "WallpaperBackup",
        "WallpaperPicker",
        "WapPushManager",
        "BuiltInPrintService",
        "Bips",
        "Traceur",
        "Provision",
    ];
    for name in real_names {
        apps.push(AppSpec {
            name: name.to_owned(),
            package: format!("com.android.{}", name.to_lowercase()),
            code_path: format!("packages/apps/{name}"),
            services: Vec::new(),
        });
    }
    assert_eq!(apps.len(), 88, "the paper analyses 88 prebuilt apps");
    apps
}

fn build_third_party_apps() -> Vec<ThirdPartyAppSpec> {
    let mut apps = vec![
        ThirdPartyAppSpec {
            name: "Google Text-to-speech".to_owned(),
            package: "com.google.android.tts".to_owned(),
            downloads: "1e9-5e9".to_owned(),
            vulnerable_interface: Some((
                "ITextToSpeechService".to_owned(),
                "setCallback".to_owned(),
            )),
        },
        ThirdPartyAppSpec {
            name: "Supernet VPN".to_owned(),
            package: "com.supernet.vpn".to_owned(),
            downloads: "1e6-5e6".to_owned(),
            vulnerable_interface: Some((
                "IOpenVPNAPIService".to_owned(),
                "registerStatusCallback".to_owned(),
            )),
        },
        ThirdPartyAppSpec {
            name: "SnapMovie".to_owned(),
            package: "com.snapmovie.app".to_owned(),
            downloads: "1e6-5e6".to_owned(),
            vulnerable_interface: Some(("IMainService".to_owned(), "a".to_owned())),
        },
    ];
    for i in 0..997u32 {
        apps.push(ThirdPartyAppSpec {
            name: format!("PlayApp{i:03}"),
            package: format!("com.play.app{i:03}"),
            downloads: match i % 4 {
                0 => "1e4-5e4".to_owned(),
                1 => "1e5-5e5".to_owned(),
                2 => "1e6-5e6".to_owned(),
                _ => "1e7-5e7".to_owned(),
            },
            vulnerable_interface: None,
        });
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_counts_match_the_paper() {
        let aosp = AospSpec::android_6_0_1();
        assert_eq!(aosp.services.len(), 104, "104 system services");
        assert_eq!(
            aosp.services.iter().filter(|s| s.native).count(),
            5,
            "5 native services"
        );
        assert_eq!(
            aosp.vulnerable_service_interfaces().count(),
            54,
            "54 vulnerable interfaces"
        );
        let vulnerable_services: BTreeSet<_> = aosp
            .vulnerable_service_interfaces()
            .map(|(s, _)| s.name.clone())
            .collect();
        assert_eq!(vulnerable_services.len(), 32, "32 vulnerable services");
        assert_eq!(
            aosp.zero_permission_vulnerable_services().len(),
            22,
            "22 services attackable with zero permissions"
        );
        assert_eq!(aosp.prebuilt_apps.len(), 88);
        assert_eq!(aosp.vulnerable_prebuilt_interfaces().count(), 3);
        assert_eq!(aosp.third_party_apps.len(), 1_000);
        assert_eq!(
            aosp.third_party_apps
                .iter()
                .filter(|a| a.vulnerable_interface.is_some())
                .count(),
            3
        );
        assert!(
            aosp.total_ipc_methods() > 1_900,
            "thousands of IPC methods, got {}",
            aosp.total_ipc_methods()
        );
    }

    #[test]
    fn protection_breakdown_matches_tables_2_and_3() {
        let aosp = AospSpec::android_6_0_1();
        let protected: Vec<_> = aosp
            .services
            .iter()
            .flat_map(|s| s.methods.iter().map(move |m| (s, m)))
            .filter(|(_, m)| m.protection.exists())
            .collect();
        assert_eq!(protected.len(), 13, "13 interfaces have been protected");
        let still_vulnerable = protected.iter().filter(|(_, m)| m.is_vulnerable()).count();
        assert_eq!(still_vulnerable, 10, "10 protected interfaces still fall");
        let helper_protected = protected
            .iter()
            .filter(|(_, m)| matches!(m.protection, Protection::HelperThreshold { .. }))
            .count();
        assert_eq!(helper_protected, 9, "Table II lists 9 helper-protected");
    }

    #[test]
    fn unprotected_permission_split_matches_section_4b() {
        use std::collections::BTreeMap;
        let aosp = AospSpec::android_6_0_1();
        // Classify the 26 services of Table I by their *least-privileged*
        // unprotected vulnerable interface.
        let mut per_service: BTreeMap<&str, Vec<&MethodSpec>> = BTreeMap::new();
        for (s, m) in aosp.vulnerable_service_interfaces() {
            if matches!(m.protection, Protection::None) {
                per_service.entry(s.name.as_str()).or_default().push(m);
            }
        }
        assert_eq!(per_service.len(), 26, "26 unprotected vulnerable services");
        let mut zero = 0;
        let mut normal = 0;
        let mut dangerous = 0;
        for methods in per_service.values() {
            let min_level = methods
                .iter()
                .map(|m| match m.permission {
                    None => 0,
                    Some(p) if p.level() == ProtectionLevel::Normal => 1,
                    Some(_) => 2,
                })
                .min()
                .unwrap();
            match min_level {
                0 => zero += 1,
                1 => normal += 1,
                _ => dangerous += 1,
            }
        }
        assert_eq!((zero, normal, dangerous), (19, 4, 3));
    }

    #[test]
    fn exhaustion_targets_span_the_figure_3_range() {
        let aosp = AospSpec::android_6_0_1();
        let mut times: Vec<u64> = aosp
            .vulnerable_service_interfaces()
            .map(|(_, m)| {
                let JgrBehavior::RetainPerCall { grefs_per_call: g } = m.jgr else {
                    unreachable!()
                };
                m.cost.expected_exhaustion_us(JGR_CAP, g) / 1_000_000
            })
            .collect();
        times.sort_unstable();
        // Fastest ≈100 s, slowest ≈1800 s, everything in between.
        assert!((95..=105).contains(&times[0]), "fastest {}", times[0]);
        assert!(
            (1_700..=1_900).contains(times.last().unwrap()),
            "slowest {}",
            times.last().unwrap()
        );
        let audio = aosp
            .service("audio")
            .unwrap()
            .method("startWatchingRoutes")
            .unwrap();
        let toast = aosp
            .service("notification")
            .unwrap()
            .method("enqueueToast")
            .unwrap();
        assert!(
            audio.cost.expected_exhaustion_us(JGR_CAP, 1)
                < toast.cost.expected_exhaustion_us(JGR_CAP, 1)
        );
    }

    #[test]
    fn base_costs_stay_inside_figure_6_envelope() {
        let aosp = AospSpec::android_6_0_1();
        for (s, m) in aosp.vulnerable_service_interfaces() {
            // First 1000 calls stay under ~8 ms (Figure 6's x-axis).
            let early = m.cost.expected_us(1_000) + m.cost.jitter_us;
            assert!(
                early < 10_500,
                "{}.{} early cost {}µs breaks the Fig 6 envelope",
                s.name,
                m.name,
                early
            );
        }
    }

    #[test]
    fn named_flaws_and_helpers_present() {
        let aosp = AospSpec::android_6_0_1();
        let toast = aosp
            .service("notification")
            .unwrap()
            .method("enqueueToast")
            .unwrap();
        assert!(matches!(
            toast.protection,
            Protection::PerProcessLimit {
                flaw: Some(Flaw::SystemPackageSpoof),
                ..
            }
        ));
        assert!(toast.is_vulnerable());
        let wifi_lock = aosp
            .service("wifi")
            .unwrap()
            .method("acquireWifiLock")
            .unwrap();
        match &wifi_lock.protection {
            Protection::HelperThreshold {
                helper_class,
                limit,
            } => {
                assert_eq!(helper_class, "WifiManager");
                assert_eq!(*limit, 50, "MAX_ACTIVE_LOCKS");
            }
            other => panic!("unexpected protection {other:?}"),
        }
        let display = aosp
            .service("display")
            .unwrap()
            .method("registerCallback")
            .unwrap();
        assert!(!display.is_vulnerable(), "sound per-process cap holds");
        assert!(
            display.jgr.retains_unbounded(),
            "but it is risky statically"
        );
    }

    #[test]
    fn interfaces_are_distinct_and_nonempty() {
        let aosp = AospSpec::android_6_0_1();
        for s in &aosp.services {
            assert!(s.interface.starts_with('I'), "{}", s.interface);
            assert!(!s.methods.is_empty());
            let mut names: Vec<_> = s.methods.iter().map(|m| m.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate method in {}", s.name);
        }
    }

    #[test]
    fn spec_is_deterministic() {
        let a = AospSpec::android_6_0_1();
        let b = AospSpec::android_6_0_1();
        assert_eq!(a, b);
    }
}
