//! Differential stage: cross-check the dynamic fuzz findings against the
//! static lint's predictions.
//!
//! The two analyses have complementary blind spots. The lint reasons
//! over framework source models, so it cannot see services the model
//! omits (prebuilt-app exports) but never needs to execute anything; the
//! fuzzer only believes what it observed, so it cannot flag a leak its
//! budget never reached but never reports a method that did not actually
//! grow the JGR table. Disagreements are therefore the interesting
//! output:
//!
//! - **fuzz-only** findings are dynamically proven leaks the sift rules
//!   missed — each is emitted as a regression fixture the lint test
//!   suite pins so the rule gap stays visible until closed.
//! - **lint-only** predictions are replayed dynamically with a
//!   well-formed leak probe; a probe that refutes the prediction marks a
//!   static false positive, a probe that confirms it marks a fuzz
//!   coverage gap.

use std::collections::BTreeSet;

use jgre_analysis::{predicted_leaks, Diagnostic};
use jgre_core::ExperimentScale;
use serde::Serialize;

use crate::engine::{replay_probe, LEAK_THRESHOLD};
use crate::report::{FuzzReport, MinimizedRepro};

/// A leak both analyses agree on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AgreedFinding {
    /// Service name.
    pub service: String,
    /// Method name.
    pub method: String,
}

/// A dynamically proven leak the static lint missed — a sift-rule
/// regression fixture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FuzzOnlyFinding {
    /// Service name.
    pub service: String,
    /// Method name.
    pub method: String,
    /// Host kind (`"system"` or `"app"`); prebuilt-app hosts are the
    /// expected lint blind spot.
    pub host: String,
    /// Leak signature label (`retain-per-call` / `spoof-bypass`).
    pub signature: String,
    /// The minimized reproducer the fixture replays.
    pub minimized: MinimizedRepro,
}

/// A lint prediction the fuzzer did not report, replayed dynamically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LintOnlyFinding {
    /// Service name.
    pub service: String,
    /// Method name.
    pub method: String,
    /// Whether the dynamic replay confirmed the leak (fuzz coverage gap)
    /// or refuted it (static false positive).
    pub dynamically_confirmed: bool,
    /// GC-surviving growth the replay probe observed (0 when the pair
    /// does not exist on the booted image).
    pub growth: usize,
}

/// The full differential report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DifferentialReport {
    /// Leaks both analyses found, sorted by (service, method).
    pub agreed: Vec<AgreedFinding>,
    /// Dynamically proven leaks the lint missed (regression fixtures).
    pub fuzz_only: Vec<FuzzOnlyFinding>,
    /// Lint predictions the fuzzer missed, with replay verdicts.
    pub lint_only: Vec<LintOnlyFinding>,
}

impl DifferentialReport {
    /// Serializes the deterministic JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("differential report serialises")
    }

    /// Lint predictions the dynamic replay refuted — static false
    /// positives.
    pub fn refuted(&self) -> impl Iterator<Item = &LintOnlyFinding> {
        self.lint_only.iter().filter(|f| !f.dynamically_confirmed)
    }

    /// Renders the human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "differential: {} agreed, {} fuzz-only, {} lint-only",
            self.agreed.len(),
            self.fuzz_only.len(),
            self.lint_only.len()
        );
        for f in &self.fuzz_only {
            let _ = writeln!(
                out,
                "  fuzz-only  {:<44} {:<15} host {}  (sift-rule fixture)",
                format!("{}.{}", f.service, f.method),
                f.signature,
                f.host
            );
        }
        for f in &self.lint_only {
            let verdict = if f.dynamically_confirmed {
                "confirmed (fuzz coverage gap)"
            } else {
                "refuted (static false positive)"
            };
            let _ = writeln!(
                out,
                "  lint-only  {:<44} growth {:>4}  {}",
                format!("{}.{}", f.service, f.method),
                f.growth,
                verdict
            );
        }
        out
    }
}

/// The combined artifact `jgre fuzz --out` writes: the fuzz report plus
/// its differential cross-check, serialized together so one file pins
/// both.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FuzzArtifact {
    /// The campaign report.
    pub fuzz: FuzzReport,
    /// The lint cross-check.
    pub differential: DifferentialReport,
}

impl FuzzArtifact {
    /// Serializes the deterministic JSON the CI smoke job byte-diffs.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fuzz artifact serialises")
    }

    /// Renders both sections.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.fuzz.render(), self.differential.render())
    }
}

/// Cross-checks a fuzz report against the lint diagnostics. Lint-only
/// pairs are replayed dynamically on a device booted at
/// `scale.with_seed(seed)`; everything is deterministic given the
/// inputs.
pub fn differential(
    fuzz: &FuzzReport,
    diagnostics: &[Diagnostic],
    scale: ExperimentScale,
    seed: u64,
) -> DifferentialReport {
    let lint: BTreeSet<(String, String)> = predicted_leaks(diagnostics);
    let dynamic: BTreeSet<(String, String)> = fuzz
        .findings
        .iter()
        .map(|f| (f.service.clone(), f.method.clone()))
        .collect();
    let agreed = lint
        .intersection(&dynamic)
        .map(|(s, m)| AgreedFinding {
            service: s.clone(),
            method: m.clone(),
        })
        .collect();
    let fuzz_only = fuzz
        .findings
        .iter()
        .filter(|f| !lint.contains(&(f.service.clone(), f.method.clone())))
        .map(|f| FuzzOnlyFinding {
            service: f.service.clone(),
            method: f.method.clone(),
            host: f.host.clone(),
            signature: f.signature.label().to_owned(),
            minimized: f.minimized.clone(),
        })
        .collect();
    let lint_only = lint
        .difference(&dynamic)
        .map(|(s, m)| {
            let growth = replay_probe(s, m, scale, seed).unwrap_or(0);
            LintOnlyFinding {
                service: s.clone(),
                method: m.clone(),
                dynamically_confirmed: growth >= LEAK_THRESHOLD,
                growth,
            }
        })
        .collect();
    DifferentialReport {
        agreed,
        fuzz_only,
        lint_only,
    }
}
