//! Figures 8/9, §V-C effectiveness, and §V-D.1 response delays.

use std::fmt::Write as _;

use jgre_attack::{run_interleaved, Actor, ActorKind, AttackVector};
use jgre_corpus::spec::AospSpec;
use jgre_defense::{DetectionOutcome, JgreDefender};
use jgre_framework::{FrameworkError, System};
use jgre_sim::{SimDuration, Uid};
use serde::Serialize;

use crate::ExperimentScale;

/// Result of one defended attack run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DefendedAttack {
    /// The interface attacked.
    pub interface: String,
    /// Whether the victim survived (no abort before detection).
    pub victim_survived: bool,
    /// The detection, if the alarm fired.
    pub detection: Option<DetectionOutcome>,
    /// Whether the attacker was among the killed apps.
    pub attacker_killed: bool,
}

/// Drives `vector` against a defended device, polling the defender after
/// every call, until detection or `max_calls`.
pub fn run_defended_attack(
    system: &mut System,
    defender: &JgreDefender,
    vector: &AttackVector,
    max_calls: u64,
) -> DefendedAttack {
    let mal = system.install_app(
        format!("com.malware.{}.{}", vector.service, vector.method),
        vector.permissions.iter().copied(),
    );
    let mut victim_survived = true;
    let mut detection = None;
    for _ in 0..max_calls {
        match system.call_service(mal, &vector.service, &vector.method, vector.call_options()) {
            Ok(o) => {
                if o.host_aborted {
                    victim_survived = false;
                    break;
                }
            }
            Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => {
                victim_survived = false;
                break;
            }
            Err(e) => panic!("defended attack {}.{}: {e}", vector.service, vector.method),
        }
        if let Some(d) = defender.poll(system) {
            detection = Some(d);
            break;
        }
    }
    let attacker_killed = detection
        .as_ref()
        .map(|d| d.killed.contains(&mal))
        .unwrap_or(false);
    DefendedAttack {
        interface: format!("{}.{}", vector.service, vector.method),
        victim_survived,
        detection,
        attacker_killed,
    }
}

/// §V-C: the defense must stop all 57 identified attacks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DefenseEffectiveness {
    /// One row per vector.
    pub runs: Vec<DefendedAttack>,
    /// Vectors where the victim survived *and* the attacker was killed.
    pub defended: usize,
}

impl DefenseEffectiveness {
    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Defense effectiveness — {}/{} attacks stopped\n",
            self.defended,
            self.runs.len()
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{}  {}",
                if r.victim_survived && r.attacker_killed {
                    "DEFENDED"
                } else {
                    "FAILED  "
                },
                r.interface
            );
        }
        out
    }
}

/// Runs every one of the 57 vectors against a defended device.
pub fn defense_effectiveness(scale: ExperimentScale) -> DefenseEffectiveness {
    let spec = AospSpec::android_6_0_1();
    let mut runs = Vec::new();
    for vector in AttackVector::all_vectors(&spec) {
        let mut system = System::boot_with(scale.system_config());
        let defender = JgreDefender::install(&mut system, scale.defender_config())
            .expect("scale presets produce a valid defender config");
        let run = run_defended_attack(
            &mut system,
            &defender,
            &vector,
            scale.jgr_capacity as u64 * 4,
        );
        runs.push(run);
    }
    let defended = runs
        .iter()
        .filter(|r| r.victim_survived && r.attacker_killed)
        .count();
    DefenseEffectiveness { runs, defended }
}

/// One §V-D.1 row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ResponseDelayRow {
    /// Interface attacked.
    pub interface: String,
    /// Modeled on-device detection delay.
    pub response_delay_us: u64,
    /// Correlation rounds needed.
    pub rounds: usize,
}

/// §V-D.1: detection delays across all 57 vulnerable interfaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ResponseDelay {
    /// Per-interface rows, slowest first.
    pub rows: Vec<ResponseDelayRow>,
}

impl ResponseDelay {
    /// One row per run that detected, slowest first.
    pub fn from_runs(runs: &[DefendedAttack]) -> Self {
        let mut rows: Vec<ResponseDelayRow> = runs
            .iter()
            .filter_map(|run| {
                let d = run.detection.as_ref()?;
                Some(ResponseDelayRow {
                    interface: run.interface.clone(),
                    response_delay_us: d.response_delay.as_micros(),
                    rounds: d.rounds,
                })
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.response_delay_us));
        Self { rows }
    }

    /// Rows above one second.
    pub fn above_one_second(&self) -> Vec<&ResponseDelayRow> {
        self.rows
            .iter()
            .filter(|r| r.response_delay_us > 1_000_000)
            .collect()
    }

    /// The slowest row.
    ///
    /// # Panics
    ///
    /// Panics when no rows were produced.
    pub fn slowest(&self) -> &ResponseDelayRow {
        self.rows.first().expect("at least one interface ran")
    }

    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut out = String::from("Response delays (§V-D.1), slowest first\n");
        for r in self.rows.iter().take(10) {
            let _ = writeln!(
                out,
                "{:>10.3}s  {} rounds  {}",
                r.response_delay_us as f64 / 1e6,
                r.rounds,
                r.interface
            );
        }
        let mut samples: jgre_sim::Samples =
            self.rows.iter().map(|r| r.response_delay_us).collect();
        if let Some(summary) = samples.summary() {
            let _ = writeln!(
                out,
                "... {} interfaces total, {} above 1s; median {:.3}s, mean {:.3}s, max {:.3}s",
                self.rows.len(),
                self.above_one_second().len(),
                summary.median as f64 / 1e6,
                summary.mean / 1e6,
                summary.max as f64 / 1e6,
            );
        }
        out
    }
}

/// Measures the detection delay for every vector: the rows of the §V-C
/// sweep, [`defense_effectiveness`].
pub fn response_delay(scale: ExperimentScale) -> ResponseDelay {
    ResponseDelay::from_runs(&defense_effectiveness(scale).runs)
}

/// One Figure 8 point: attacker score vs the best benign score while that
/// attacker was active.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig8Row {
    /// Vulnerability index (paper's X axis).
    pub index: usize,
    /// Interface.
    pub interface: String,
    /// The malicious app's suspicious-IPC count.
    pub malicious_score: u64,
    /// The best-scoring benign app's count.
    pub top_benign_score: u64,
}

/// Figure 8.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig8 {
    /// One row per known vulnerability.
    pub rows: Vec<Fig8Row>,
}

impl Fig8 {
    /// Fraction of rows where the attacker strictly outscores every
    /// benign app.
    pub fn separation_rate(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .filter(|r| r.malicious_score > r.top_benign_score)
            .count() as f64
            / self.rows.len() as f64
    }

    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 8 — suspicious IPC calls: malicious vs top benign (Δ=1.8ms)\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "#{:02}  mal {:>6}  benign {:>6}  {}",
                r.index, r.malicious_score, r.top_benign_score, r.interface
            );
        }
        let _ = writeln!(out, "separation: {:.0}%", self.separation_rate() * 100.0);
        out
    }
}

/// Regenerates Figure 8: for each known vulnerability, one attacker runs
/// against `benign_apps` chatty benign apps; the defender's scores are
/// read at alarm time.
pub fn fig8(scale: ExperimentScale, benign_apps: usize, vectors_limit: usize) -> Fig8 {
    let spec = AospSpec::android_6_0_1();
    let mut rows = Vec::new();
    for (index, vector) in AttackVector::service_vectors(&spec)
        .into_iter()
        .take(vectors_limit)
        .enumerate()
    {
        let mut system = System::boot_with(scale.system_config());
        let defender = JgreDefender::install(&mut system, scale.defender_config())
            .expect("scale presets produce a valid defender config");
        let mal = system.install_app("com.malware", vector.permissions.iter().copied());
        let mut actors = vec![Actor {
            uid: mal,
            kind: ActorKind::Attacker(vector.clone()),
        }];
        for b in 0..benign_apps {
            let uid = system.install_app(format!("com.benign{b}"), []);
            actors.push(Actor {
                uid,
                kind: ActorKind::ChattyBenign {
                    max_gap: SimDuration::from_millis(100),
                },
            });
        }
        // Run in slices, polling for the alarm between slices.
        let victim = system
            .service_info(&vector.service)
            .expect("vector targets a registered service")
            .host;
        let mut scores = None;
        for _ in 0..10_000 {
            run_interleaved(
                &mut system,
                actors.clone(),
                SimDuration::from_millis(500),
                scale.seed ^ index as u64,
                true,
            );
            if !defender.monitor().alarmed_pids().is_empty() {
                scores = defender.score_only(&system, victim, scale.default_delta());
                break;
            }
        }
        let Some(report) = scores else {
            continue;
        };
        let malicious_score = report
            .scores
            .iter()
            .find(|s| s.uid == mal)
            .map(|s| s.score)
            .unwrap_or(0);
        let top_benign_score = report
            .scores
            .iter()
            .filter(|s| s.uid != mal)
            .map(|s| s.score)
            .max()
            .unwrap_or(0);
        rows.push(Fig8Row {
            index,
            interface: format!("{}.{}", vector.service, vector.method),
            malicious_score,
            top_benign_score,
        });
    }
    Fig8 { rows }
}

/// One Figure 9 row: an app's suspicious-call count at one Δ.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig9Row {
    /// Δ in microseconds.
    pub delta_us: u64,
    /// App uid.
    pub uid: Uid,
    /// Whether the app is one of the colluding attackers.
    pub malicious: bool,
    /// Suspicious-IPC count.
    pub score: u64,
}

/// Figure 9: four colluding attackers + one chatty benign app, scored at
/// three Δ values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig9 {
    /// Top-5 rows per Δ.
    pub rows: Vec<Fig9Row>,
    /// The Δ values swept.
    pub deltas_us: Vec<u64>,
}

impl Fig9 {
    /// For a given Δ, whether the four malicious apps occupy the top four
    /// ranks.
    pub fn top4_all_malicious(&self, delta_us: u64) -> bool {
        let mut at_delta: Vec<&Fig9Row> = self
            .rows
            .iter()
            .filter(|r| r.delta_us == delta_us)
            .collect();
        at_delta.sort_by_key(|r| std::cmp::Reverse(r.score));
        at_delta.iter().take(4).all(|r| r.malicious)
    }

    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 9 — colluding attackers, Δ sweep\n");
        for &delta in &self.deltas_us {
            let _ = writeln!(out, "Δ = {delta}µs:");
            let mut at: Vec<&Fig9Row> = self.rows.iter().filter(|r| r.delta_us == delta).collect();
            at.sort_by_key(|r| std::cmp::Reverse(r.score));
            for r in at.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  {}: {:>6} suspicious calls ({})",
                    r.uid,
                    r.score,
                    if r.malicious { "malicious" } else { "benign" }
                );
            }
        }
        out
    }
}

/// Regenerates Figure 9.
pub fn fig9(scale: ExperimentScale) -> Fig9 {
    let deltas_us = vec![79u64, 1_900, 3_583];
    let spec = AospSpec::android_6_0_1();
    // Four colluding attackers on different zero-permission interfaces.
    // The paper does not name its four; we use interfaces whose timing
    // deviation is moderate so the narrowest Δ (79 µs) in the sweep still
    // concentrates their votes, as in the published figure.
    let picks = [
        ("accessibility", "addClient"),
        ("mount", "registerListener"),
        ("textservices", "getSpellCheckerService"),
        ("input_method", "addClient"),
    ];
    let vectors: Vec<AttackVector> = picks
        .iter()
        .map(|(svc, method)| {
            AttackVector::service_vectors(&spec)
                .into_iter()
                .find(|v| &v.service == svc && &v.method == method)
                .expect("all four interfaces are vulnerable")
        })
        .collect();

    let mut system = System::boot_with(scale.system_config());
    let defender = JgreDefender::install(&mut system, scale.defender_config())
        .expect("scale presets produce a valid defender config");
    let mut malicious = Vec::new();
    let mut actors = Vec::new();
    for (i, v) in vectors.iter().enumerate() {
        let uid = system.install_app(format!("com.collude{i}"), v.permissions.iter().copied());
        malicious.push(uid);
        actors.push(Actor {
            uid,
            kind: ActorKind::Attacker(v.clone()),
        });
    }
    let benign = system.install_app("com.benign.chatty", []);
    actors.push(Actor {
        uid: benign,
        kind: ActorKind::ChattyBenign {
            max_gap: SimDuration::from_millis(100),
        },
    });
    let victim = system.system_server_pid();
    for _ in 0..10_000 {
        run_interleaved(
            &mut system,
            actors.clone(),
            SimDuration::from_millis(500),
            scale.seed,
            true,
        );
        if !defender.monitor().alarmed_pids().is_empty() {
            break;
        }
    }
    let mut rows = Vec::new();
    for &delta in &deltas_us {
        if let Some(report) = defender.score_only(&system, victim, SimDuration::from_micros(delta))
        {
            for s in &report.scores {
                rows.push(Fig9Row {
                    delta_us: delta,
                    uid: s.uid,
                    malicious: malicious.contains(&s.uid),
                    score: s.score,
                });
            }
        }
    }
    Fig9 { rows, deltas_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_stops_every_vector_at_quick_scale() {
        let e = defense_effectiveness(ExperimentScale::quick());
        assert_eq!(e.runs.len(), 57);
        assert_eq!(
            e.defended,
            57,
            "failed: {:?}",
            e.runs
                .iter()
                .filter(|r| !(r.victim_survived && r.attacker_killed))
                .map(|r| r.interface.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn response_delay_shape() {
        let r = response_delay(ExperimentScale::quick());
        assert_eq!(r.rows.len(), 57);
        // Slow cases exist (multi-round) but detection is always far
        // faster than the fastest exhaustion (~100 s paper / ~1.5 s quick).
        assert!(r.slowest().rounds >= 1);
        for row in &r.rows {
            assert!(
                row.response_delay_us < 1_500_000,
                "{} took {}µs",
                row.interface,
                row.response_delay_us
            );
        }
    }

    #[test]
    fn fig9_top4_are_the_colluders() {
        let f = fig9(ExperimentScale::quick());
        for &delta in &f.deltas_us {
            assert!(
                f.top4_all_malicious(delta),
                "Δ={delta}: top-4 not all malicious\n{}",
                f.render()
            );
        }
    }

    #[test]
    fn fig8_separates_malicious_from_benign() {
        let f = fig8(ExperimentScale::quick(), 3, 8);
        assert!(!f.rows.is_empty());
        assert!(
            f.separation_rate() >= 0.99,
            "separation {:.2}\n{}",
            f.separation_rate(),
            f.render()
        );
    }
}
