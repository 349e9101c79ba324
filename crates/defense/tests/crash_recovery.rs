//! Crash-consistency invariants for the durable [`JgreDefender`].
//!
//! The headline property is *differential*: the same seeded attack run
//! twice — once fault-free, once with the defender crashing at random
//! [`CrashPoint`]s — must end in the same place. The fault-free durable
//! run must in turn equal a plain [`JgreDefender::install`] run exactly. The attacker dies in
//! both runs; when the crashed run delivers its detection outcome (a
//! crash between the kill and the journal append can swallow it), the
//! victim and kill set match the clean run exactly. The only permitted
//! divergence is time: a bounded, fully accounted recovery-delay window.
//!
//! The negative half feeds the recovery path damaged bytes — bit flips,
//! torn tails, stale schemas, checksum rot — and requires typed
//! rejection plus a working journal-only recovery, never a panic.

use std::io;
use std::rc::Rc;

use jgre_defense::{
    decode_checkpoint, CheckpointReject, DefenderConfig, DetectionOutcome, DurableConfig,
    JgreDefender, MemoryStore, StateStore, CHECKPOINT_SCHEMA_VERSION,
};
use jgre_framework::{CallOptions, System, SystemConfig};
use jgre_sim::{CrashPoint, FaultPlan, SimDuration, Uid};
use proptest::prelude::*;

const CAP: usize = 3_200;
const JOURNAL_HEADER_LEN: usize = 8 + 4 + 8;

fn config() -> DefenderConfig {
    DefenderConfig {
        record_threshold: 250,
        trigger_threshold: 750,
        normal_level: 190,
        cooldown: SimDuration::from_millis(100),
        ..DefenderConfig::default()
    }
}

fn durable() -> DurableConfig {
    DurableConfig {
        checkpoint_interval: 64,
        ..DurableConfig::default()
    }
}

fn boot(seed: u64, plan: FaultPlan) -> System {
    System::boot_with(SystemConfig {
        seed,
        jgr_capacity: Some(CAP),
        faults: plan,
        ..SystemConfig::default()
    })
}

fn defended(seed: u64, plan: FaultPlan) -> (System, JgreDefender, Rc<MemoryStore>) {
    let mut system = boot(seed, plan);
    let store = Rc::new(MemoryStore::new());
    let defender = JgreDefender::install_durable(&mut system, config(), durable(), store.clone())
        .expect("config is valid");
    (system, defender, store)
}

fn resume(system: &mut System, store: Rc<MemoryStore>) -> JgreDefender {
    JgreDefender::resume(system, config(), durable(), store).expect("store is readable")
}

/// One leaking attacker driven until the defender finishes the job:
/// either a delivered outcome or the attacker's pid vanishing from the
/// process table (the outcome died with a crashing defender).
struct RunResult {
    outcome: Option<DetectionOutcome>,
    attacker_dead: bool,
}

fn drive(system: &mut System, defender: &JgreDefender, mal: Uid) -> RunResult {
    for _ in 0..(CAP as u64 * 4) {
        let Ok(o) = system.call_service(
            mal,
            "clipboard",
            "addPrimaryClipChangedListener",
            CallOptions::default(),
        ) else {
            break;
        };
        if o.host_aborted {
            break;
        }
        if let Some(d) = defender.poll(system) {
            return RunResult {
                attacker_dead: system.pid_of(mal).is_none(),
                outcome: Some(d),
            };
        }
        if system.pid_of(mal).is_none() {
            return RunResult {
                outcome: None,
                attacker_dead: true,
            };
        }
    }
    RunResult {
        outcome: None,
        attacker_dead: system.pid_of(mal).is_none(),
    }
}

/// Crash-only fault plans: every other channel stays at zero so the two
/// differential runs see identical fault-layer behavior except for the
/// crash draws themselves.
fn crash_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let point = prop_oneof![
        Just(None),
        Just(Some(CrashPoint::PollStart)),
        Just(Some(CrashPoint::PostScoring)),
        Just(Some(CrashPoint::Kill)),
        Just(Some(CrashPoint::JournalAppend)),
        Just(Some(CrashPoint::Checkpoint)),
    ];
    // The compat proptest has no float ranges: sample a percentage.
    (5u32..=100, 1u32..=5, point).prop_map(|(pct, crash_budget, crash_point)| FaultPlan {
        crash: f64::from(pct) / 100.0,
        crash_budget,
        crash_point,
        ..FaultPlan::none()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential recovery: a defender that crashes and recovers ends
    /// where the uncrashed one does — same dead attacker, same victim,
    /// same kill set when the outcome survives — and every microsecond
    /// of divergence is accounted for in `recovery_delay_us`. The
    /// uncrashed durable run is itself the plain defender's run: same
    /// outcome in every field, same final clock.
    #[test]
    fn crashed_run_converges_to_the_clean_run(seed in 0u64..500, plan in crash_plan_strategy()) {
        let (mut clean_sys, clean_def, _) = defended(seed, FaultPlan::none());
        let clean_mal = clean_sys.install_app("com.prop.attacker", []);
        let clean = drive(&mut clean_sys, &clean_def, clean_mal);

        let mut plain_sys = boot(seed, FaultPlan::none());
        let plain_def = JgreDefender::install(&mut plain_sys, config()).expect("config is valid");
        let plain_mal = plain_sys.install_app("com.prop.attacker", []);
        let plain = drive(&mut plain_sys, &plain_def, plain_mal);
        prop_assert_eq!(&clean.outcome, &plain.outcome);
        prop_assert_eq!(clean.attacker_dead, plain.attacker_dead);
        prop_assert_eq!(clean_sys.now(), plain_sys.now());

        let budget = plan.crash_budget;
        let (mut sys, def, _) = defended(seed, plan);
        let mal = sys.install_app("com.prop.attacker", []);
        let crashed = drive(&mut sys, &def, mal);
        let stats = def.stats();

        // The supervisor's default budget (8 consecutive) exceeds the
        // plan's crash budget (≤ 5), so it never gives up.
        prop_assert!(!stats.gave_up, "restart budget cannot be exhausted here");
        prop_assert!(stats.crashes <= u64::from(budget));
        prop_assert_eq!(stats.restarts, stats.crashes);

        // Ground truth: the attacker dies in both runs.
        prop_assert!(clean.attacker_dead || clean.outcome.is_some());
        prop_assert_eq!(crashed.attacker_dead, true,
            "recovered defender must still kill the attacker");

        // When the crashed run delivers its outcome, it is the clean one.
        if let (Some(c), Some(k)) = (&clean.outcome, &crashed.outcome) {
            prop_assert_eq!(c.victim, k.victim);
            prop_assert_eq!(&c.killed, &k.killed);
        }

        // Every crash leaves a torn tail for reopen to truncate, and the
        // recovery delay decomposes into backoff + replay exactly.
        if stats.crashes > 0 {
            prop_assert!(stats.truncated_bytes > 0);
            let supervisor = def.supervisor().expect("a durable defender is supervised");
            let backoff = supervisor.total_backoff().as_micros();
            let replay = stats.replayed_records * 2; // 2 µs per replayed record
            prop_assert_eq!(stats.recovery_delay_us, backoff + replay);
            let cap = supervisor.config().backoff_cap.as_micros();
            prop_assert!(stats.recovery_delay_us <= stats.restarts * cap + replay);
        } else {
            prop_assert_eq!(stats.recovery_delay_us, 0);
        }
    }
}

/// Loads the store with sub-trigger traffic and returns it alongside
/// the live watch count, ready for byte-level tampering.
fn loaded_store(seed: u64, calls: u32) -> (System, Rc<MemoryStore>, usize) {
    let (mut system, defender, store) = defended(seed, FaultPlan::none());
    let mal = system.install_app("com.prop.attacker", []);
    for _ in 0..calls {
        system
            .call_service(
                mal,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .unwrap();
        assert!(defender.poll(&mut system).is_none(), "stays below trigger");
    }
    let live = defender.monitor().current_count(system.system_server_pid());
    drop(defender);
    system.clear_jgr_observers();
    (system, store, live)
}

#[test]
fn journal_bit_flip_truncates_to_the_clean_prefix_without_panicking() {
    let (mut system, store, _) = loaded_store(11, 600);
    let mut bytes = store.journal_bytes();
    assert!(bytes.len() > JOURNAL_HEADER_LEN + 32, "journal has frames");
    // Flip one bit in the middle of the frame region.
    let mid = JOURNAL_HEADER_LEN + (bytes.len() - JOURNAL_HEADER_LEN) / 2;
    bytes[mid] ^= 0x10;
    store.set_journal_bytes(bytes);
    let resumed = resume(&mut system, store);
    let stats = resumed.stats();
    assert!(
        stats.truncated_bytes > 0,
        "the corrupt suffix must be dropped"
    );
    assert!(resumed.is_running());
    assert_eq!(stats.checkpoints_rejected, 0, "the checkpoint is intact");
}

#[test]
fn journal_mid_frame_truncation_recovers_the_prefix() {
    let (mut system, store, _) = loaded_store(13, 600);
    let mut bytes = store.journal_bytes();
    let torn = bytes.len() - 3;
    bytes.truncate(torn);
    store.set_journal_bytes(bytes);
    let resumed = resume(&mut system, store.clone());
    assert!(resumed.stats().truncated_bytes > 0);
    assert!(resumed.is_running());
    // Recovery rewrote a well-formed journal: a second resume sees no
    // damage at all.
    drop(resumed);
    system.clear_jgr_observers();
    let again = resume(&mut system, store);
    assert_eq!(again.stats().truncated_bytes, 0);
}

#[test]
fn stale_checkpoint_schema_is_rejected_and_recovery_goes_journal_only() {
    let (mut system, store, _) = loaded_store(17, 600);
    let mut cp = store.checkpoint_bytes().expect("periodic checkpoint ran");
    // Patch the schema version field (offset 8, u32 LE).
    cp[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        decode_checkpoint(&cp),
        Err(CheckpointReject::BadVersion(99)),
        "sanity: the tamper hits the version field"
    );
    assert_ne!(99, CHECKPOINT_SCHEMA_VERSION);
    store.set_checkpoint_bytes(Some(cp));
    let resumed = resume(&mut system, store);
    let stats = resumed.stats();
    assert_eq!(stats.checkpoints_rejected, 1);
    assert!(resumed.is_running(), "journal-only recovery still boots");
    assert!(
        stats.checkpoints_written >= 1,
        "recovery re-checkpoints the rebuilt state"
    );
}

#[test]
fn checkpoint_checksum_rot_is_rejected_without_panicking() {
    let (mut system, store, _) = loaded_store(19, 600);
    let mut cp = store.checkpoint_bytes().expect("periodic checkpoint ran");
    let last = cp.len() - 1;
    cp[last] ^= 0x01;
    assert_eq!(decode_checkpoint(&cp), Err(CheckpointReject::BadChecksum));
    store.set_checkpoint_bytes(Some(cp));
    let resumed = resume(&mut system, store);
    assert_eq!(resumed.stats().checkpoints_rejected, 1);
    assert!(resumed.is_running());
}

#[test]
fn journal_only_recovery_still_finishes_the_attack() {
    // Reject the checkpoint outright, then check the resumed defender
    // still detects and kills.
    let (mut system, store, _) = loaded_store(23, 600);
    store.set_checkpoint_bytes(None);
    let resumed = resume(&mut system, store);
    let mal = system.install_app("com.prop.attacker2", []);
    let result = drive(&mut system, &resumed, mal);
    assert!(result.attacker_dead, "fresh attacker dies post-recovery");
}

/// A store whose journal appends always fail: every WAL write is lost.
#[derive(Debug, Default)]
struct AppendFailsStore(MemoryStore);

impl StateStore for AppendFailsStore {
    fn load_journal(&self) -> io::Result<Vec<u8>> {
        self.0.load_journal()
    }

    fn append_journal(&self, _bytes: &[u8]) -> io::Result<()> {
        Err(io::Error::other("disk full"))
    }

    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()> {
        self.0.replace_journal(bytes)
    }

    fn load_checkpoint(&self) -> io::Result<Option<Vec<u8>>> {
        self.0.load_checkpoint()
    }

    fn store_checkpoint(&self, bytes: &[u8]) -> io::Result<()> {
        self.0.store_checkpoint(bytes)
    }
}

#[test]
fn lost_journal_writes_are_counted_as_store_errors() {
    let mut system = boot(29, FaultPlan::none());
    let defender = JgreDefender::install_durable(
        &mut system,
        config(),
        durable(),
        Rc::new(AppendFailsStore::default()),
    )
    .expect("config is valid");
    let mal = system.install_app("com.prop.attacker", []);
    for _ in 0..100 {
        system
            .call_service(
                mal,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .unwrap();
        assert!(defender.poll(&mut system).is_none(), "stays below trigger");
    }
    let stats = defender.stats();
    assert!(
        stats.store_errors >= 100,
        "every journaled event was lost, got {} store errors",
        stats.store_errors
    );
    assert!(defender.is_running(), "a lossy journal is not fatal");
}
