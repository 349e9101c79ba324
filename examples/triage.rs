//! A security engineer's triage workflow, end to end:
//!
//! 1. run the static pipeline and pick a finding,
//! 2. emit the Javapoet-style verification case (the APK source an
//!    analyst would build — Code-Snippet 2),
//! 3. reproduce the leak on the simulated device,
//! 4. read the `dumpsys` view and the runtime's reference-table dump —
//!    the artifacts that went into the paper's bug reports to Google.
//!
//! Run with `cargo run --example triage`.

use jgre_core::analysis::{
    generate_test_case, DataflowDetector, IpcMethodExtractor, JgrEntryExtractor,
};
use jgre_core::corpus::{spec::AospSpec, CodeModel};
use jgre_core::framework::{CallOptions, System, SystemConfig};

fn main() {
    // 1. Static analysis.
    let spec = AospSpec::android_6_0_1();
    let model = CodeModel::synthesize(&spec);
    let ipc = IpcMethodExtractor::new(&model).extract();
    let entries = JgrEntryExtractor::new(&model).extract();
    let output = DataflowDetector::new(&model, &entries)
        .detect(&ipc)
        .detector;
    let finding = output
        .risky
        .iter()
        .find(|r| r.ipc.service == "wifi" && r.ipc.method == "acquireWifiLock")
        .expect("the wifi lock is risky");
    println!(
        "finding: {}.{} (binder params: {}, via Handler edge: {})\n",
        finding.ipc.service,
        finding.ipc.method,
        finding.via_binder_params,
        finding.via_handler_edge
    );

    // 2. The generated verification app.
    let case = generate_test_case(finding, &spec);
    println!("--- generated test case ({}) ---", case.target);
    if case.permissions.is_empty() {
        println!("// manifest: no permissions required");
    }
    for p in &case.permissions {
        println!("// manifest: <uses-permission android:name=\"{p}\"/>");
    }
    println!("{}", case.java_source);

    // 3. Reproduce on the device (reduced capacity for a fast demo).
    let mut system = System::boot_with(SystemConfig {
        jgr_capacity: Some(3_000),
        ..SystemConfig::default()
    });
    let mal = system.install_app(
        "com.poc.wifilock",
        [jgre_core::corpus::spec::Permission::WakeLock],
    );
    for _ in 0..800 {
        system
            .call_service(mal, "wifi", "acquireWifiLock", CallOptions::default())
            .expect("wifi registered");
    }
    let ss = system.system_server_pid();
    system.gc_process(ss);

    // 4. The triage artifacts.
    println!("--- dumpsys wifi ---");
    print!("{}", system.dumpsys("wifi").expect("wifi registered"));
    println!("\n--- global reference table dump (system_server) ---");
    // The runtime-side dump is reachable through the trace in production;
    // here we re-derive it from the public counters for the demo.
    println!(
        "table size: {} of {} (survives GC: the listener list pins every proxy)",
        system.system_server_jgr_count(),
        3_000
    );
    assert_eq!(system.retained_entries("wifi", "acquireWifiLock"), 800);
}
