//! Long-haul soak: one defended device survives a whole campaign of
//! sequential attacks (every vector, one attacker after another), with
//! the driver log staying bounded and the JGR table returning to its
//! stock floor after each recovery.

use std::rc::Rc;

use jgre_repro::core::attack::AttackVector;
use jgre_repro::core::corpus::spec::AospSpec;
use jgre_repro::core::defense::{DurableConfig, JgreDefender, MemoryStore};
use jgre_repro::core::framework::{CallOptions, FrameworkError, System, SystemConfig};
use jgre_repro::core::ExperimentScale;
use jgre_repro::sim::FaultPlan;

#[test]
fn one_device_survives_a_full_attack_campaign() {
    let scale = ExperimentScale::quick();
    let mut system = System::boot_with(scale.system_config());
    let defender = JgreDefender::install(&mut system, scale.defender_config())
        .expect("defender config is valid");
    let spec = AospSpec::android_6_0_1();

    let mut detections = 0usize;
    let mut max_log = 0usize;
    for (i, vector) in AttackVector::all_vectors(&spec).into_iter().enumerate() {
        let mal = system.install_app(format!("com.wave{i}"), vector.permissions.clone());
        let mut detected = false;
        for _ in 0..(scale.jgr_capacity as u64 * 4) {
            match system.call_service(mal, &vector.service, &vector.method, vector.call_options()) {
                Ok(o) => assert!(
                    !o.host_aborted,
                    "wave {i} ({}) aborted the victim",
                    vector.service
                ),
                // A previous wave may have crashed an app-hosted service's
                // process; system services must always be there.
                Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => break,
                Err(e) => panic!("wave {i}: {e}"),
            }
            if let Some(d) = defender.poll(&mut system) {
                assert!(d.killed.contains(&mal), "wave {i} killed {:?}", d.killed);
                detections += 1;
                detected = true;
                break;
            }
        }
        assert!(
            detected,
            "wave {i} ({}.{}) was never detected",
            vector.service, vector.method
        );
        max_log = max_log.max(system.driver().log().len());
        // Recovery left the table near the stock floor.
        let jgr = system.system_server_jgr_count();
        assert!(
            jgr <= scale.normal_level,
            "wave {i}: table at {jgr} after recovery"
        );
    }
    assert_eq!(system.soft_reboots(), 0, "no reboot across the campaign");
    assert_eq!(detections, 57);
    // The defender prunes the proc log after each detection, so it never
    // grows with the campaign length.
    assert!(
        max_log < scale.jgr_capacity * 6,
        "driver log unbounded: {max_log}"
    );
}

#[test]
fn defender_tolerates_a_victim_dying_before_recovery() {
    // Adversarial sequencing: the attack exhausts an *app-hosted* service
    // (its own process aborts, not system_server) while the defender's
    // alarm is pending; poll must handle the dead victim gracefully.
    let scale = ExperimentScale::quick();
    let mut system = System::boot_with(scale.system_config());
    let defender = JgreDefender::install(&mut system, scale.defender_config())
        .expect("defender config is valid");
    let mal = system.install_app("com.evil", []);
    // Drive the PicoTts app service to abort WITHOUT polling the defender.
    loop {
        match system.call_service(mal, "pico_tts", "setCallback", CallOptions::default()) {
            Ok(o) if o.host_aborted => break,
            Ok(_) => {}
            Err(e) => panic!("{e}"),
        }
    }
    // The victim is gone; the pending alarm must resolve without panicking
    // and without killing anything by mistake.
    if let Some(d) = defender.poll(&mut system) {
        assert!(d.victim_jgr_after.is_none() || d.killed.contains(&mal));
    }
    assert_eq!(system.soft_reboots(), 0);
    // The rest of the device still works.
    let benign = system.install_app("com.fine", []);
    system
        .call_service(
            benign,
            "clipboard",
            "addPrimaryClipChangedListener",
            CallOptions::default(),
        )
        .expect("system services unaffected");
}

#[test]
fn crash_consistent_defender_survives_a_campaign_of_crashes() {
    // Long-haul crash soak: the defender dies probabilistically at every
    // crash boundary for the whole campaign, yet each attacker still
    // ends up dead and the supervisor never exhausts its budget — every
    // recovery replays from the journal rather than starting blind.
    let scale = ExperimentScale::quick();
    let mut system = System::boot_with(SystemConfig {
        faults: FaultPlan {
            crash: 0.2,
            crash_budget: u32::MAX,
            ..FaultPlan::none()
        },
        ..scale.system_config()
    });
    let store = Rc::new(MemoryStore::new());
    let defender = JgreDefender::install_durable(
        &mut system,
        scale.defender_config(),
        DurableConfig::default(),
        store,
    )
    .expect("config is valid");

    for wave in 0..8u32 {
        let mal = system.install_app(format!("com.crashwave{wave}"), []);
        let mut dead = false;
        for _ in 0..(scale.jgr_capacity as u64 * 4) {
            let outcome = system
                .call_service(
                    mal,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .expect("clipboard registered");
            assert!(!outcome.host_aborted, "wave {wave} aborted the victim");
            defender.poll(&mut system);
            if system.pid_of(mal).is_none() {
                dead = true;
                break;
            }
        }
        assert!(dead, "wave {wave}: attacker outlived the defender");
        assert!(!defender.stats().gave_up, "wave {wave}: supervisor quit");
    }
    let stats = defender.stats();
    assert!(stats.crashes > 0, "the crash channel must actually fire");
    assert_eq!(stats.restarts, stats.crashes);
    assert!(stats.checkpoints_written > 0);
    assert!(stats.truncated_bytes > 0, "every crash leaves a torn tail");
    assert_eq!(system.soft_reboots(), 0, "no reboot across the campaign");
}
