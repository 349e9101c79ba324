//! Head-to-head on the same workload (§V-A's argument, executed): a quiet
//! leaker plus a three-times-chattier innocent app. The raw-call-count
//! strawman kills the innocent app; the JGRE Defender's correlation score
//! kills the leaker.

use jgre_oracles::CallCountDefense;
use jgre_repro::core::defense::{DefenderConfig, JgreDefender};
use jgre_repro::core::framework::{CallOptions, System, SystemConfig};
use jgre_repro::core::sim::Uid;

struct Scenario {
    system: System,
    evil: Uid,
    busy: Uid,
    think: u64,
}

fn scenario() -> Scenario {
    let mut system = System::boot_with(SystemConfig {
        seed: 13,
        jgr_capacity: Some(3_200),
        ..SystemConfig::default()
    });
    let evil = system.install_app("com.quiet.leaker", []);
    let busy = system.install_app("com.busy.innocent", []);
    Scenario {
        system,
        evil,
        busy,
        think: 0x9E37_79B9,
    }
}

/// One round of the mixed workload: three innocent calls with human think
/// time between them, one leaking call. (Without the think time both apps
/// would run in rigid lockstep with the Binder loop — a timing pattern no
/// real app produces and that defeats any correlator by construction.)
fn step(s: &mut Scenario) {
    for _ in 0..3 {
        s.system
            .call_service(s.busy, "clipboard", "getState", CallOptions::default())
            .expect("innocent method exists");
        s.think = s.think.wrapping_mul(6364136223846793005).wrapping_add(1);
        let gap_ms = 2 + (s.think >> 33) % 9;
        s.system
            .clock()
            .advance(jgre_repro::core::sim::SimDuration::from_millis(gap_ms));
    }
    s.system
        .call_service(
            s.evil,
            "clipboard",
            "addPrimaryClipChangedListener",
            CallOptions::default(),
        )
        .expect("clipboard registered");
}

#[test]
fn jgre_defender_kills_the_leaker_where_the_strawman_fails() {
    // Strawman first.
    let mut s = scenario();
    let strawman = CallCountDefense::install(&mut s.system, 250, 750, 150)
        .expect("strawman thresholds are valid");
    let strawman_killed = loop {
        step(&mut s);
        if let Some(d) = strawman.poll(&mut s.system) {
            break d.killed;
        }
    };
    assert_eq!(
        strawman_killed.first(),
        Some(&s.busy),
        "the volume heuristic punishes the innocent app"
    );

    // Same workload, the real defender.
    let mut s = scenario();
    let defender = JgreDefender::install(
        &mut s.system,
        DefenderConfig {
            record_threshold: 250,
            trigger_threshold: 750,
            normal_level: 150,
            ..DefenderConfig::default()
        },
    )
    .expect("defender config is valid");
    let detection = loop {
        step(&mut s);
        if let Some(d) = defender.poll(&mut s.system) {
            break d;
        }
    };
    assert_eq!(
        detection.killed,
        vec![s.evil],
        "Algorithm 1 attributes the JGR growth to the leaker"
    );
    assert!(
        s.system.pid_of(s.busy).is_some(),
        "the innocent app survives"
    );
}
