//! Serialization round-trips for the fault-injection plan.
//!
//! `FaultPlan` is embedded in chaos-matrix artifacts and CLI JSON
//! output. A field whose rendered JSON does not read back as written
//! would describe a different experiment than the one that ran, so for
//! every representable plan — including the budget sentinels and the
//! optional crash pin — the JSON must parse back into the same value
//! tree, and every probability's number into the same `f64` bits.

use jgre_sim::{CrashPoint, FaultIntensity, FaultKind, FaultPlan, SimDuration};
use proptest::prelude::*;
use serde::Serialize;

/// Compact and pretty JSON both parse back into the plan's value tree,
/// and each `f64` field bit for bit.
fn check_round_trip(plan: &FaultPlan) -> Result<(), TestCaseError> {
    // Destructured, so a new probability cannot be left unchecked.
    let FaultPlan {
        ipc_drop,
        ipc_duplicate,
        ipc_delay,
        ipc_delay_max: _,
        ipc_reorder,
        jgr_truncate,
        jgr_corrupt,
        jgr_corrupt_max: _,
        clock_jitter,
        clock_jitter_max: _,
        kill_fail,
        kill_fail_budget: _,
        kill_respawn,
        crash,
        crash_budget: _,
        crash_point: _,
    } = *plan;
    let floats = [
        ("ipc_drop", ipc_drop),
        ("ipc_duplicate", ipc_duplicate),
        ("ipc_delay", ipc_delay),
        ("ipc_reorder", ipc_reorder),
        ("jgr_truncate", jgr_truncate),
        ("jgr_corrupt", jgr_corrupt),
        ("clock_jitter", clock_jitter),
        ("kill_fail", kill_fail),
        ("kill_respawn", kill_respawn),
        ("crash", crash),
    ];
    let tree = plan.to_value();
    for json in [
        serde_json::to_string(plan).expect("plans serialize"),
        serde_json::to_string_pretty(plan).expect("plans serialize"),
    ] {
        let parsed = serde_json::from_str(&json).expect("plan JSON parses");
        prop_assert_eq!(&parsed, &tree);
        for (name, value) in floats {
            prop_assert_eq!(
                parsed[name].as_f64().map(f64::to_bits),
                Some(value.to_bits()),
                "{}",
                name
            );
        }
    }
    Ok(())
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let point = prop_oneof![
        Just(None),
        Just(Some(CrashPoint::PollStart)),
        Just(Some(CrashPoint::PostScoring)),
        Just(Some(CrashPoint::Kill)),
        Just(Some(CrashPoint::JournalAppend)),
        Just(Some(CrashPoint::Checkpoint)),
    ];
    // The compat proptest has no float ranges; per-mill integers cover
    // the probability space densely enough and exercise non-dyadic
    // floats (0.001 has no finite binary expansion).
    let probs = proptest::collection::vec(0u32..=1_000, 10);
    let durations = proptest::collection::vec(0u64..=5_000_000, 4);
    let budgets = || prop_oneof![Just(0u32), 1u32..=100, Just(u32::MAX)];
    (probs, durations, budgets(), budgets(), point).prop_map(
        |(p, d, kill_fail_budget, crash_budget, crash_point)| FaultPlan {
            ipc_drop: f64::from(p[0]) / 1_000.0,
            ipc_duplicate: f64::from(p[1]) / 1_000.0,
            ipc_delay: f64::from(p[2]) / 1_000.0,
            ipc_delay_max: SimDuration::from_micros(d[0]),
            ipc_reorder: f64::from(p[3]) / 1_000.0,
            jgr_truncate: f64::from(p[4]) / 1_000.0,
            jgr_corrupt: f64::from(p[5]) / 1_000.0,
            jgr_corrupt_max: SimDuration::from_micros(d[1]),
            clock_jitter: f64::from(p[6]) / 1_000.0,
            clock_jitter_max: SimDuration::from_micros(d[2]),
            kill_fail: f64::from(p[7]) / 1_000.0,
            kill_fail_budget,
            kill_respawn: f64::from(p[8]) / 1_000.0,
            crash: f64::from(p[9]) / 1_000.0,
            crash_budget,
            crash_point,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compact and pretty JSON both reproduce the exact plan, including
    /// `u32::MAX` budget sentinels and the crash-point pin.
    #[test]
    fn fault_plan_round_trips_through_json(plan in plan_strategy()) {
        check_round_trip(&plan)?;
    }
}

#[test]
fn every_intensity_of_every_kind_round_trips() {
    for kind in FaultKind::ALL {
        for intensity in [
            FaultIntensity::Off,
            FaultIntensity::Light,
            FaultIntensity::Moderate,
            FaultIntensity::Severe,
        ] {
            let plan = FaultPlan::single(kind, intensity);
            if let Err(e) = check_round_trip(&plan) {
                panic!("{}/{} must round-trip: {e}", kind.name(), intensity.name());
            }
        }
    }
}

#[test]
fn kind_names_parse_back() {
    for kind in FaultKind::ALL {
        assert_eq!(FaultKind::parse(kind.name()), Some(kind));
    }
    assert_eq!(
        FaultKind::parse("defender-crash"),
        Some(FaultKind::DefenderCrash)
    );
    assert_eq!(FaultKind::parse("no-such-fault"), None);
}
