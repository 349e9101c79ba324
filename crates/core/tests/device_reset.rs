//! Arena-slot reuse: a reset device is a fresh device.
//!
//! The fleet engine re-boots one [`DefendedDevice`] slot per worker
//! between runs instead of building a new device each time. That reuse is
//! only sound if *nothing* leaks across [`DefendedDevice::reset`] — not
//! the virtual clock, not uid allocation, not defender monitor state, not
//! the previous attack's JGR tables. These tests run different attacks
//! back-to-back on one slot and require the second run to be
//! indistinguishable from one on a freshly-booted device.
//!
//! Every boot reads its service registry in place from the shared
//! Android image, so the registry tests at the end check that a
//! shared-spec boot answers every service query exactly as the spec
//! says — also after a soft reboot, and after an app host crashed on an
//! earlier device booted from the same image.

use std::rc::Rc;

use jgre_attack::AttackVector;
use jgre_core::fleet::{campaign_catalog, run_device, DeviceArena, FleetConfig};
use jgre_core::{DefendedDevice, ExperimentScale};
use jgre_corpus::spec::{AospSpec, ServiceSpec};
use jgre_framework::{CallOptions, ServiceInfo, System, SystemConfig};

#[test]
fn second_attack_on_a_reused_slot_matches_a_fresh_arena() {
    let config = FleetConfig {
        devices: 2,
        ..FleetConfig::new(ExperimentScale::quick())
    };
    let catalog = campaign_catalog(&config);

    // Device 0 (accessibility vector) dirties the slot: detections fired,
    // apps installed, clock advanced, defender monitor warm.
    let mut reused = DeviceArena::new();
    let first = run_device(&mut reused, &config, &catalog, 0);
    assert!(
        !first.detections.is_empty(),
        "first run should trip the defense"
    );

    // Device 1 (a different vector) on the dirty slot vs a fresh arena.
    let on_reused = run_device(&mut reused, &config, &catalog, 1);
    let mut fresh = DeviceArena::new();
    let on_fresh = run_device(&mut fresh, &config, &catalog, 1);
    assert_eq!(on_reused, on_fresh, "state leaked across DeviceArena reuse");
    assert_ne!(
        first.interface, on_reused.interface,
        "test needs two distinct attacks"
    );
}

#[test]
fn run_order_on_a_slot_does_not_matter() {
    let config = FleetConfig {
        devices: 4,
        ..FleetConfig::new(ExperimentScale::quick())
    };
    let catalog = campaign_catalog(&config);
    let mut forward = DeviceArena::new();
    let f0 = run_device(&mut forward, &config, &catalog, 0);
    let f3 = run_device(&mut forward, &config, &catalog, 3);
    let mut backward = DeviceArena::new();
    let b3 = run_device(&mut backward, &config, &catalog, 3);
    let b0 = run_device(&mut backward, &config, &catalog, 0);
    assert_eq!(f0, b0);
    assert_eq!(f3, b3);
}

#[test]
fn reset_restores_every_fresh_boot_observable() {
    let scale = ExperimentScale::quick();

    // Dirty a device thoroughly: extra app, attack driven to detection.
    let mut used = DefendedDevice::boot(scale);
    let bystander = used.system_mut().install_app("com.bystander", []);
    used.call_service(bystander, "clipboard", "getState", CallOptions::default())
        .expect("benign call");
    let mal = used.system_mut().install_app("com.evil", []);
    while used.detections().is_empty() {
        used.call_service(mal, "audio", "startWatchingRoutes", CallOptions::default())
            .expect("audio registered");
    }
    assert!(used.system().now() > DefendedDevice::boot(scale).system().now());

    used.reset(scale);
    let mut fresh = DefendedDevice::boot(scale);

    // Clock, reboot counter, and detections back to boot state.
    assert_eq!(used.system().now(), fresh.system().now());
    assert_eq!(used.system().soft_reboots(), 0);
    assert!(used.detections().is_empty());

    // Uid allocation restarts: the first app installed after reset gets
    // the same uid as the first app on a fresh device.
    let u = used.system_mut().install_app("com.first", []);
    let f = fresh.system_mut().install_app("com.first", []);
    assert_eq!(u, f, "uid allocator leaked across reset");

    // And the same attack plays out identically on both.
    let drive = |device: &mut DefendedDevice, uid| {
        let mut calls = 0u64;
        while device.detections().is_empty() {
            device
                .call_service(uid, "audio", "startWatchingRoutes", CallOptions::default())
                .expect("audio registered");
            calls += 1;
            assert!(calls < 50_000, "defense never fired");
        }
        (calls, device.detections().to_vec())
    };
    let (used_calls, used_detections) = drive(&mut used, u);
    let (fresh_calls, fresh_detections) = drive(&mut fresh, f);
    assert_eq!(used_calls, fresh_calls);
    assert_eq!(used_detections, fresh_detections);
}

// -- the service registry of a shared-spec boot ---------------------------

/// Everything a device answers about one registered service through the
/// framework's public queries.
#[derive(Debug, PartialEq)]
struct ServiceView {
    info: Option<ServiceInfo>,
    method_count: Option<usize>,
    /// `transaction_code` of every spec method, then of an unknown name.
    codes: Vec<Option<u32>>,
    /// `method_for_code` for codes 0 ..= count + 1.
    methods: Vec<Option<String>>,
    dumpsys: Option<String>,
}

fn view(system: &System, service: &ServiceSpec) -> ServiceView {
    let name = service.name.as_str();
    let mut codes: Vec<Option<u32>> = service
        .methods
        .iter()
        .map(|m| system.transaction_code(name, &m.name))
        .collect();
    codes.push(system.transaction_code(name, "noSuchMethod"));
    let methods = (0..=service.methods.len() as u32 + 1)
        .map(|code| system.method_for_code(name, code).map(str::to_owned))
        .collect();
    ServiceView {
        info: system.service_info(name),
        method_count: system.method_count(name),
        codes,
        methods,
        dumpsys: system.dumpsys(name),
    }
}

/// Every service the image registers at boot: the system services, then
/// those of each prebuilt app that exports any, with the app's package.
fn image_services(spec: &AospSpec) -> Vec<(&ServiceSpec, Option<&str>)> {
    let system = spec.services.iter().map(|s| (s, None));
    let prebuilt = spec
        .prebuilt_apps
        .iter()
        .flat_map(|a| a.services.iter().map(|s| (s, Some(a.package.as_str()))));
    system.chain(prebuilt).collect()
}

/// Checks the registry of a device with no per-method state yet against
/// the spec itself: names, interfaces, hosts, the positional code table
/// and the `dumpsys` header.
fn assert_registry_matches_spec(system: &System, spec: &AospSpec) {
    let mut names: Vec<String> = image_services(spec)
        .iter()
        .map(|(s, _)| s.name.clone())
        .collect();
    names.sort();
    assert_eq!(system.service_names(), names);
    let mut app_hosts = std::collections::BTreeMap::new();
    for (service, package) in image_services(spec) {
        let got = view(system, service);
        let info = got.info.clone().expect("every image service is registered");
        match package {
            None => assert_eq!(info.host, system.system_server_pid()),
            Some(package) => {
                assert_ne!(info.host, system.system_server_pid());
                // All services of one app share its process.
                assert_eq!(*app_hosts.entry(package).or_insert(info.host), info.host);
            }
        }
        let n = service.methods.len();
        let mut codes: Vec<Option<u32>> = (1..=n as u32).map(Some).collect();
        codes.push(None);
        let mut methods = vec![None];
        methods.extend(service.methods.iter().map(|m| Some(m.name.clone())));
        methods.push(None);
        let host_jgr = system.jgr_count(info.host).unwrap_or(0);
        let expected = ServiceView {
            info: Some(ServiceInfo {
                name: service.name.clone(),
                interface: service.interface.clone(),
                host: info.host,
                native: service.native,
            }),
            method_count: Some(n),
            codes,
            methods,
            dumpsys: Some(format!(
                "SERVICE {} ({}) host={} native={}\n  host JGR table: {host_jgr} entries\n",
                service.name, service.interface, info.host, service.native
            )),
        };
        assert_eq!(got, expected, "{}", service.name);
    }
}

fn small_config(seed: u64) -> SystemConfig {
    SystemConfig {
        seed,
        jgr_capacity: Some(64),
        ..SystemConfig::default()
    }
}

#[test]
fn shared_spec_boot_answers_like_a_fresh_image() {
    let spec = Rc::new(AospSpec::android_6_0_1());
    // Dirty the shared image's users first: a device that ran traffic.
    let mut earlier = System::boot_with_spec(small_config(3), Rc::clone(&spec));
    let app = earlier.install_app("com.evil", []);
    for _ in 0..10 {
        earlier
            .call_service(app, "audio", "startWatchingRoutes", CallOptions::default())
            .expect("audio registered");
    }
    drop(earlier);

    let shared = System::boot_with_spec(small_config(4), Rc::clone(&spec));
    let fresh = System::boot_with_spec(small_config(4), Rc::new(AospSpec::android_6_0_1()));
    assert_registry_matches_spec(&shared, &spec);
    for (service, _) in image_services(&spec) {
        assert_eq!(view(&shared, service), view(&fresh, service));
    }
}

#[test]
fn soft_reboot_re_registers_every_service_from_the_spec() {
    let spec = Rc::new(AospSpec::android_6_0_1());
    let mut system = System::boot_with_spec(small_config(5), Rc::clone(&spec));
    let app = system.install_app("com.evil", []);
    let mut calls = 0;
    while system.soft_reboots() == 0 {
        system
            .call_service(
                app,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .expect("clipboard registered");
        calls += 1;
        assert!(calls < 1_000, "system_server never overflowed");
    }
    // The reboot cleared every service's call state and re-registered
    // the image: the registry reads exactly as at boot.
    assert_registry_matches_spec(&system, &spec);
}

#[test]
fn a_crashed_app_host_drops_its_services_but_not_from_the_next_boot() {
    let spec = Rc::new(AospSpec::android_6_0_1());
    let vector = AttackVector::prebuilt_vectors(&spec)
        .into_iter()
        .next()
        .expect("the catalog has prebuilt-app vectors");
    let mut system = System::boot_with_spec(small_config(6), Rc::clone(&spec));
    let host = system
        .service_info(&vector.service)
        .expect("app service registered")
        .host;
    let dropped: Vec<&ServiceSpec> = image_services(&spec)
        .into_iter()
        .map(|(s, _)| s)
        .filter(|s| system.service_info(&s.name).is_some_and(|i| i.host == host))
        .collect();
    let app = system.install_app("com.evil", vector.permissions.iter().copied());
    let mut aborted = false;
    for _ in 0..1_000 {
        let outcome = system
            .call_service(app, &vector.service, &vector.method, vector.call_options())
            .expect("app service reachable until its host dies");
        if outcome.host_aborted {
            aborted = true;
            break;
        }
    }
    assert!(aborted, "{} never exhausted its host", vector.label());
    assert_eq!(system.soft_reboots(), 0, "only the app process dies");

    // The dead host's services went dark on this device...
    let gone = ServiceView {
        info: None,
        method_count: None,
        codes: Vec::new(),
        methods: Vec::new(),
        dumpsys: None,
    };
    for service in &dropped {
        let mut got = view(&system, service);
        assert!(got.codes.iter().all(Option::is_none));
        assert!(got.methods.iter().all(Option::is_none));
        got.codes.clear();
        got.methods.clear();
        assert_eq!(got, gone, "{}", service.name);
        assert!(!system.service_names().contains(&service.name));
    }
    // ...but the shared image is untouched: the next boot has them all.
    let next = System::boot_with_spec(small_config(6), Rc::clone(&spec));
    assert_registry_matches_spec(&next, &spec);
}
