//! Event-driven interleaving of attackers and benign apps on one timeline.
//!
//! Figures 8 and 9 need several apps issuing IPC concurrently: a malicious
//! app grinding a vulnerable interface while benign apps make ordinary
//! calls (Figure 8), or four colluding attackers racing a deliberately
//! chatty benign app (Figure 9). The simulation is single-threaded, so
//! concurrency is modelled with an event queue: each actor owns a stream
//! of call events; the earliest event fires next and the call's cost
//! pushes the shared clock forward.

use jgre_corpus::spec::{JgrBehavior, ProtectionLevel};
use jgre_framework::{CallOptions, FrameworkError, System};
use jgre_sim::{EventQueue, SimDuration, SimRng, SimTime, Uid};
use serde::Serialize;

use crate::AttackVector;

/// What an actor does each time it wakes.
#[derive(Debug, Clone)]
pub enum ActorKind {
    /// Grinds one vulnerable interface as fast as its handler allows.
    Attacker(AttackVector),
    /// §VI: grinds one interface but rotates across `paths` execution
    /// paths, smearing the IPC→JGR timing signature to evade a
    /// single-bucket correlator.
    MultiPathAttacker {
        /// The interface under attack.
        vector: AttackVector,
        /// Number of distinct execution paths rotated through.
        paths: u8,
    },
    /// Fires innocent IPC calls with uniformly random gaps in
    /// `[0, max_gap]` — the paper's benign app that "keeps triggering IPC
    /// calls with the interval between two IPC calls varying between 0 and
    /// 100 ms".
    ChattyBenign {
        /// Maximum think time between calls.
        max_gap: SimDuration,
    },
}

/// One participant in an interleaved run.
#[derive(Debug, Clone)]
pub struct Actor {
    /// Installed uid (install the app before building the actor).
    pub uid: Uid,
    /// Behaviour.
    pub kind: ActorKind,
}

/// Aggregate stats of an interleaved run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct InterleaveStats {
    /// Calls issued per actor uid, in actor order.
    pub calls_per_actor: Vec<(Uid, u64)>,
    /// Whether any victim aborted during the run.
    pub any_abort: bool,
    /// Virtual end time.
    pub ended_at: SimTime,
}

/// Runs `actors` against `system` until `duration` of virtual time passes
/// (or a victim aborts, when `stop_on_abort`).
///
/// # Example
///
/// ```
/// use jgre_attack::{run_interleaved, Actor, ActorKind, AttackVector};
/// use jgre_framework::System;
/// use jgre_sim::SimDuration;
///
/// let mut system = System::boot(5);
/// let spec = system.spec().clone();
/// let vector = AttackVector::service_vectors(&spec)
///     .into_iter()
///     .find(|v| v.service == "clipboard")
///     .unwrap();
/// let mal = system.install_app("com.evil", vector.permissions.clone());
/// let benign = system.install_app("com.benign", []);
/// let stats = run_interleaved(
///     &mut system,
///     vec![
///         Actor { uid: mal, kind: ActorKind::Attacker(vector) },
///         Actor { uid: benign, kind: ActorKind::ChattyBenign { max_gap: SimDuration::from_millis(100) } },
///     ],
///     SimDuration::from_secs(5),
///     7,
///     false,
/// );
/// assert_eq!(stats.calls_per_actor.len(), 2);
/// ```
pub fn run_interleaved(
    system: &mut System,
    actors: Vec<Actor>,
    duration: SimDuration,
    seed: u64,
    stop_on_abort: bool,
) -> InterleaveStats {
    let mut rng = SimRng::seed(seed ^ 0x1A7E_53ED);
    let start = system.now();
    let deadline = start + duration;
    let mut queue: EventQueue<usize> = EventQueue::new();
    for (i, _) in actors.iter().enumerate() {
        // Stagger starts within the first 10 ms for determinism without
        // lockstep.
        queue.schedule(start + SimDuration::from_micros(rng.range(0..10_000u64)), i);
    }
    // Innocent call pool for benign actors.
    let spec = system.spec().clone();
    let mut innocent: Vec<(String, String)> = Vec::new();
    for svc in &spec.services {
        if svc.native {
            continue;
        }
        for m in &svc.methods {
            if matches!(m.jgr, JgrBehavior::NoJgr | JgrBehavior::Transient)
                && m.permission
                    .is_none_or(|p| p.level() == ProtectionLevel::Normal)
                && m.permission.is_none()
            {
                innocent.push((svc.name.clone(), m.name.clone()));
            }
        }
    }

    let mut calls = vec![0u64; actors.len()];
    let mut any_abort = false;
    while let Some((at, idx)) = queue.pop() {
        if at >= deadline {
            break;
        }
        if at > system.now() {
            system.clock().advance_to(at);
        }
        let actor = &actors[idx];
        let aborted = match &actor.kind {
            ActorKind::Attacker(vector) => {
                match system.call_service(
                    actor.uid,
                    &vector.service,
                    &vector.method,
                    vector.call_options(),
                ) {
                    Ok(o) => {
                        calls[idx] += 1;
                        o.host_aborted
                    }
                    Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => false,
                    Err(FrameworkError::UnknownApp) => false,
                    Err(e) => panic!("attacker {idx} failed: {e}"),
                }
            }
            ActorKind::MultiPathAttacker { vector, paths } => {
                let mut options = vector.call_options();
                options.path_variant = (calls[idx] % (*paths).max(1) as u64) as u8;
                match system.call_service(actor.uid, &vector.service, &vector.method, options) {
                    Ok(o) => {
                        calls[idx] += 1;
                        o.host_aborted
                    }
                    Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => false,
                    Err(FrameworkError::UnknownApp) => false,
                    Err(e) => panic!("multi-path attacker {idx} failed: {e}"),
                }
            }
            ActorKind::ChattyBenign { .. } => {
                let (svc, method) = rng
                    .choose(&innocent)
                    .expect("innocent pool is never empty")
                    .clone();
                match system.call_service(actor.uid, &svc, &method, CallOptions::default()) {
                    Ok(_) => {
                        calls[idx] += 1;
                        false
                    }
                    Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => false,
                    Err(e) => panic!("benign actor {idx} failed: {e}"),
                }
            }
        };
        if aborted {
            any_abort = true;
            if stop_on_abort {
                break;
            }
        }
        let next = match &actor.kind {
            ActorKind::Attacker(_) | ActorKind::MultiPathAttacker { .. } => {
                system.now() + SimDuration::from_micros(rng.range(1..50u64))
            }
            ActorKind::ChattyBenign { max_gap } => {
                system.now() + SimDuration::from_micros(rng.range(0..=max_gap.as_micros()))
            }
        };
        if next < deadline {
            queue.schedule(next, idx);
        }
    }
    InterleaveStats {
        calls_per_actor: actors
            .iter()
            .zip(&calls)
            .map(|(a, &c)| (a.uid, c))
            .collect(),
        any_abort,
        ended_at: system.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_framework::SystemConfig;

    #[test]
    fn all_actors_make_progress() {
        let mut system = System::boot(3);
        let spec = system.spec().clone();
        let vector = AttackVector::service_vectors(&spec)
            .into_iter()
            .find(|v| v.service == "audio" && v.method == "startWatchingRoutes")
            .unwrap();
        let mal = system.install_app("com.evil", vector.permissions.clone());
        let b1 = system.install_app("com.benign1", []);
        let b2 = system.install_app("com.benign2", []);
        let stats = run_interleaved(
            &mut system,
            vec![
                Actor {
                    uid: mal,
                    kind: ActorKind::Attacker(vector),
                },
                Actor {
                    uid: b1,
                    kind: ActorKind::ChattyBenign {
                        max_gap: SimDuration::from_millis(50),
                    },
                },
                Actor {
                    uid: b2,
                    kind: ActorKind::ChattyBenign {
                        max_gap: SimDuration::from_millis(100),
                    },
                },
            ],
            SimDuration::from_secs(20),
            99,
            false,
        );
        for (uid, calls) in &stats.calls_per_actor {
            assert!(*calls > 0, "{uid} made no calls");
        }
    }

    #[test]
    fn colluding_attackers_abort_a_small_table() {
        let mut system = System::boot_with(SystemConfig {
            seed: 4,
            jgr_capacity: Some(400),
            ..SystemConfig::default()
        });
        let spec = system.spec().clone();
        let vectors: Vec<_> = AttackVector::service_vectors(&spec)
            .into_iter()
            .filter(|v| v.permissions.is_empty())
            .take(4)
            .collect();
        let actors: Vec<Actor> = vectors
            .into_iter()
            .enumerate()
            .map(|(i, v)| Actor {
                uid: system.install_app(format!("com.evil{i}"), v.permissions.clone()),
                kind: ActorKind::Attacker(v),
            })
            .collect();
        let stats = run_interleaved(&mut system, actors, SimDuration::from_secs(2_000), 5, true);
        assert!(
            stats.any_abort,
            "4 colluding attackers must blow a 400-cap table"
        );
        assert_eq!(system.soft_reboots(), 1);
    }

    #[test]
    fn interleaving_is_deterministic() {
        let run = |seed| {
            let mut system = System::boot(seed);
            let spec = system.spec().clone();
            let vector = AttackVector::service_vectors(&spec)
                .into_iter()
                .find(|v| v.service == "clipboard")
                .unwrap();
            let mal = system.install_app("com.evil", vec![]);
            let b = system.install_app("com.benign", vec![]);
            run_interleaved(
                &mut system,
                vec![
                    Actor {
                        uid: mal,
                        kind: ActorKind::Attacker(vector),
                    },
                    Actor {
                        uid: b,
                        kind: ActorKind::ChattyBenign {
                            max_gap: SimDuration::from_millis(80),
                        },
                    },
                ],
                SimDuration::from_secs(5),
                123,
                false,
            )
        };
        assert_eq!(run(8), run(8));
    }
}
