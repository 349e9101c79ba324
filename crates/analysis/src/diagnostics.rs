//! Diagnostics layer: stable rule ids, severities, and a SARIF-shaped
//! JSON export for the `jgre lint` front-end.
//!
//! Verdict rows from the [`DataflowDetector`] become [`Diagnostic`]s with
//! witness provenance; the whole set plus the accuracy report against the
//! spec ground truth forms a [`LintReport`], exportable as SARIF 2.1.0
//! (built by hand on the vendored [`Value`] tree — the subset GitHub code
//! scanning and VS Code ingest).

use serde::{Serialize, Value};

use jgre_corpus::spec::AospSpec;
use jgre_corpus::CodeModel;

use crate::leakcheck::{AnalysisOptions, DataflowDetector, LeakVerdict, Retention, SolverStats};
use crate::witness::{MinimisedFlows, Witness};
use crate::{IpcMethodExtractor, JgrEntryExtractor, ServiceKind};

/// Stable rule identifiers for lint findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum RuleId {
    /// JGRE001 — unbounded JGR retention on an attacker-reachable
    /// interface.
    UnboundedRetention,
    /// JGRE002 — retention gated behind a signature-level permission:
    /// unreachable for third-party callers, still worth surfacing.
    SignatureGatedRetention,
    /// JGRE003 — retention bounded by a visible per-process limit
    /// (Table III); statically risky, dynamically refuted.
    BoundedRetention,
    /// JGRE004 — the release exists but an early error return (failed
    /// validation, denied permission) skips it: the reference leaks only
    /// along the error path.
    ErrorPathRelease,
}

impl RuleId {
    /// The stable `JGREnnn` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::UnboundedRetention => "JGRE001",
            RuleId::SignatureGatedRetention => "JGRE002",
            RuleId::BoundedRetention => "JGRE003",
            RuleId::ErrorPathRelease => "JGRE004",
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnboundedRetention => "unbounded-jgr-retention",
            RuleId::SignatureGatedRetention => "signature-gated-jgr-retention",
            RuleId::BoundedRetention => "bounded-jgr-retention",
            RuleId::ErrorPathRelease => "release-skipped-on-error-path",
        }
    }

    /// One-line description for the SARIF rule metadata.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::UnboundedRetention => {
                "IPC method retains a JNI global reference per call without bound; \
                 repeated calls exhaust the 51200-entry table and crash the process"
            }
            RuleId::SignatureGatedRetention => {
                "JGR retention exists but a signature-level permission blocks \
                 third-party callers"
            }
            RuleId::BoundedRetention => {
                "JGR retention is capped by a per-process limit checked before \
                 the store"
            }
            RuleId::ErrorPathRelease => {
                "the JNI global reference is released on the normal path but an \
                 early error return skips the release; repeated failing calls \
                 leak one reference each"
            }
        }
    }

    /// Default severity.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::UnboundedRetention => Severity::Error,
            RuleId::SignatureGatedRetention => Severity::Note,
            RuleId::BoundedRetention => Severity::Warning,
            // Attacker-forced error paths (a bad argument) make the leak
            // just as reachable as the unconditional class.
            RuleId::ErrorPathRelease => Severity::Error,
        }
    }

    /// All rules, id order.
    pub fn all() -> [RuleId; 4] {
        [
            RuleId::UnboundedRetention,
            RuleId::SignatureGatedRetention,
            RuleId::BoundedRetention,
            RuleId::ErrorPathRelease,
        ]
    }
}

/// Finding severity, mirroring SARIF's `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Exploitable as-is.
    Error,
    /// Real retention, mitigated by a bound.
    Warning,
    /// Informational (permission-gated).
    Note,
}

impl Severity {
    /// The SARIF `level` string.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// One lint finding with witness provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Service exposing the interface.
    pub service: String,
    /// IPC method name.
    pub method: String,
    /// Kind of service.
    pub kind: ServiceKind,
    /// The underlying dataflow verdict.
    pub verdict: LeakVerdict,
    /// Finding message.
    pub message: String,
    /// One checkable witness per retained allocation site.
    pub witnesses: Vec<Witness>,
    /// Whether every retained site was *proven* bounded by a branch
    /// predicate (`BOUND_CHECKED` on all retaining sites). Proven rows
    /// stay visible as findings but are excluded from the predicted-leak
    /// set the accuracy report scores — the path-sensitive precision
    /// win.
    pub proven: bool,
}

/// Precision/recall of the risky set against the spec's ground truth,
/// restricted to system services (the paper's Table IV population).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct AccuracyReport {
    /// Flagged and truly vulnerable.
    pub true_positives: usize,
    /// Flagged but dynamically refuted (the bounded collections).
    pub false_positives: usize,
    /// Vulnerable but missed — must be zero.
    pub false_negatives: usize,
    /// `tp / (tp + fp)`.
    pub precision: f64,
    /// `tp / (tp + fn)`.
    pub recall: f64,
}

/// The complete lint run: findings, accuracy, and solver statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LintReport {
    /// All findings, pipeline order.
    pub diagnostics: Vec<Diagnostic>,
    /// Static-analysis accuracy vs the spec ground truth.
    pub accuracy: AccuracyReport,
    /// Dataflow solver statistics.
    pub stats: SolverStats,
}

impl LintReport {
    /// Runs the dataflow pipeline over `model` and assembles findings.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_analysis::diagnostics::{LintReport, RuleId};
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let spec = AospSpec::android_6_0_1();
    /// let model = CodeModel::synthesize(&spec);
    /// let report = LintReport::generate(&model, &spec);
    /// assert_eq!(report.accuracy.false_negatives, 0);
    /// assert_eq!(report.accuracy.recall, 1.0);
    /// ```
    pub fn generate(model: &CodeModel, spec: &AospSpec) -> LintReport {
        Self::generate_with(model, spec, &AnalysisOptions::default())
    }

    /// [`LintReport::generate`] with [`AnalysisOptions`]; findings are
    /// identical cached and uncached, only [`LintReport::stats`]
    /// reflects the cache traffic.
    pub fn generate_with(
        model: &CodeModel,
        spec: &AospSpec,
        options: &AnalysisOptions,
    ) -> LintReport {
        let ipc = IpcMethodExtractor::new(model).extract();
        let entries = JgrEntryExtractor::new(model).extract();
        let out = DataflowDetector::new(model, &entries).detect_with(&ipc, options);

        let mut diagnostics = Vec::new();
        for row in &out.verdicts {
            if !row.verdict.is_risky() {
                continue;
            }
            let rule = if row.signature_gated {
                RuleId::SignatureGatedRetention
            } else if row.verdict == LeakVerdict::ErrorPathLeak {
                RuleId::ErrorPathRelease
            } else if row.verdict == LeakVerdict::UnboundedLeak {
                RuleId::UnboundedRetention
            } else {
                RuleId::BoundedRetention
            };
            let retained: Vec<_> = row
                .sites
                .iter()
                .filter(|s| s.fate != Retention::Released)
                .collect();
            let witnesses: Vec<Witness> = row
                .ipc
                .java
                .into_iter()
                .flat_map(|root| {
                    retained
                        .iter()
                        .filter_map(|site| Witness::build(model, root, site))
                        .collect::<Vec<_>>()
                })
                .collect();
            let qualifier = match rule {
                RuleId::UnboundedRetention => "without bound",
                RuleId::SignatureGatedRetention => "behind a signature-level permission",
                RuleId::BoundedRetention => "up to a per-process limit",
                RuleId::ErrorPathRelease => "on its error path only",
            };
            diagnostics.push(Diagnostic {
                rule,
                service: row.ipc.service.to_owned(),
                method: row.ipc.method.to_owned(),
                kind: row.ipc.kind.clone(),
                verdict: row.verdict,
                message: format!(
                    "{}.{} retains a JNI global reference per call {} \
                     ({} allocation site{})",
                    row.ipc.service,
                    row.ipc.method,
                    qualifier,
                    retained.len(),
                    if retained.len() == 1 { "" } else { "s" },
                ),
                witnesses,
                proven: options.path_sensitive && row.proven_bounded(),
            });
        }

        let accuracy = accuracy(&diagnostics, spec);
        LintReport {
            diagnostics,
            accuracy,
            stats: out.stats,
        }
    }

    /// Exports the report as a SARIF 2.1.0 document.
    pub fn to_sarif(&self, model: &CodeModel) -> Value {
        let rules = RuleId::all()
            .into_iter()
            .map(|r| {
                obj([
                    ("id", s(r.as_str())),
                    ("name", s(r.name())),
                    ("shortDescription", obj([("text", s(r.description()))])),
                    (
                        "defaultConfiguration",
                        obj([("level", s(r.severity().sarif_level()))]),
                    ),
                ])
            })
            .collect();

        let results = self
            .diagnostics
            .iter()
            .map(|d| {
                let location = obj([(
                    "logicalLocations",
                    Value::Array(vec![obj([
                        (
                            "fullyQualifiedName",
                            s(format!("{}.{}", d.service, d.method)),
                        ),
                        ("kind", s("function")),
                    ])]),
                )]);
                // Multi-witness findings share most of their call chain;
                // emit the first flow in full and elide the common prefix
                // from the rest — readers follow the first flow for the
                // shared steps, and `MinimisedFlows::expand` guarantees
                // nothing is lost.
                let minimised = MinimisedFlows::minimise(&d.witnesses);
                let step_line = |line: String| {
                    obj([("location", obj([("message", obj([("text", s(line))]))]))])
                };
                let code_flows = minimised
                    .suffixes
                    .iter()
                    .enumerate()
                    .map(|(i, suffix)| {
                        let mut lines: Vec<String> = Vec::new();
                        if i == 0 || minimised.prefix.is_empty() {
                            lines.extend(minimised.prefix.iter().map(|step| step.render(model)));
                        } else {
                            lines.push(format!(
                                "(shared prefix: {} step{} elided, see the first code flow)",
                                minimised.prefix.len(),
                                if minimised.prefix.len() == 1 { "" } else { "s" },
                            ));
                        }
                        lines.extend(suffix.iter().map(|step| step.render(model)));
                        let locations = lines.into_iter().map(step_line).collect();
                        obj([(
                            "threadFlows",
                            Value::Array(vec![obj([("locations", Value::Array(locations))])]),
                        )])
                    })
                    .collect();
                obj([
                    ("ruleId", s(d.rule.as_str())),
                    ("level", s(d.rule.severity().sarif_level())),
                    ("message", obj([("text", s(d.message.clone()))])),
                    ("locations", Value::Array(vec![location])),
                    ("codeFlows", Value::Array(code_flows)),
                ])
            })
            .collect();

        obj([
            (
                "$schema",
                s("https://json.schemastore.org/sarif-2.1.0.json"),
            ),
            ("version", s("2.1.0")),
            (
                "runs",
                Value::Array(vec![obj([
                    (
                        "tool",
                        obj([(
                            "driver",
                            obj([
                                ("name", s("jgre-lint")),
                                ("informationUri", s("https://example.org/jgre")),
                                ("rules", Value::Array(rules)),
                            ]),
                        )]),
                    ),
                    (
                        "invocations",
                        Value::Array(vec![obj([
                            ("executionSuccessful", Value::Bool(true)),
                            (
                                "properties",
                                obj([
                                    ("summaries", Value::UInt(self.stats.methods as u64)),
                                    ("sccs", Value::UInt(self.stats.sccs as u64)),
                                    (
                                        "solverIterations",
                                        Value::UInt(self.stats.solver_iterations),
                                    ),
                                    ("cacheHits", Value::UInt(self.stats.cache_hits)),
                                    ("cacheMisses", Value::UInt(self.stats.cache_misses)),
                                    (
                                        "cacheInvalidated",
                                        Value::UInt(self.stats.cache_invalidated),
                                    ),
                                ]),
                            ),
                        ])]),
                    ),
                    ("results", Value::Array(results)),
                ])]),
            ),
        ])
    }
}

/// The lint's predicted-leak set: the (service, method) pairs the static
/// pipeline claims an unprivileged app can leak through. System-service
/// findings only, minus signature-gated rows (unreachable to apps) and
/// rows whose retention was proven bounded by a branch predicate — the
/// same filter [`LintReport::accuracy`] is scored on, exposed so dynamic
/// stages (the fuzzer's differential check) can compare against the exact
/// set the lint stands behind rather than re-deriving it.
pub fn predicted_leaks(diagnostics: &[Diagnostic]) -> std::collections::BTreeSet<(String, String)> {
    diagnostics
        .iter()
        .filter(|d| d.kind == ServiceKind::SystemService)
        .filter(|d| d.rule != RuleId::SignatureGatedRetention)
        .filter(|d| !d.proven)
        .map(|d| (d.service.clone(), d.method.clone()))
        .collect()
}

/// Scores system-service findings against the spec's vulnerability flags.
/// Rows whose retention was proven bounded by a branch predicate are not
/// part of the predicted-leak set: the analysis established their cap
/// statically, so counting them as predictions would charge a false
/// positive for a correct proof.
fn accuracy(diagnostics: &[Diagnostic], spec: &AospSpec) -> AccuracyReport {
    use std::collections::BTreeSet;
    let predicted = predicted_leaks(diagnostics);
    let truth: BTreeSet<(String, String)> = spec
        .vulnerable_service_interfaces()
        .map(|(svc, m)| (svc.name.clone(), m.name.clone()))
        .collect();
    let true_positives = predicted.intersection(&truth).count();
    let false_positives = predicted.difference(&truth).count();
    let false_negatives = truth.difference(&predicted).count();
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    AccuracyReport {
        true_positives,
        false_positives,
        false_negatives,
        precision: ratio(true_positives, true_positives + false_positives),
        recall: ratio(true_positives, true_positives + false_negatives),
    }
}

/// A SARIF object from its fields: an array, so the field list is
/// allocated once, at its final size.
fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_owned(), v)).into())
}

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> (CodeModel, LintReport) {
        let spec = AospSpec::android_6_0_1();
        let model = CodeModel::synthesize(&spec);
        let report = LintReport::generate(&model, &spec);
        (model, report)
    }

    #[test]
    fn accuracy_beats_the_paper_with_proven_bounds() {
        // Path-sensitive scoring: the bounded three are *proven* capped
        // (every retaining site behind a BOUND_CHECKED admission), so
        // they leave the predicted set — precision 1.0 at recall 1.0.
        let (_, report) = report();
        assert_eq!(report.accuracy.true_positives, 54);
        assert_eq!(report.accuracy.false_positives, 0, "bounded three proven");
        assert_eq!(report.accuracy.false_negatives, 0);
        assert_eq!(report.accuracy.recall, 1.0);
        assert_eq!(report.accuracy.precision, 1.0);
        let proven: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.proven)
            .map(|d| format!("{}.{}", d.service, d.method))
            .collect();
        assert_eq!(
            proven,
            [
                "display.registerCallback",
                "input.registerInputDevicesChangedListener",
                "input.registerTabletModeChangedListener",
            ],
            "exactly the bounded three are proven"
        );
    }

    #[test]
    fn path_insensitive_accuracy_pins_the_boolean_era_score() {
        // Regression baseline: with predicate reading off, no row is
        // proven and the bounded three come back as false positives —
        // the paper's own static score.
        let spec = AospSpec::android_6_0_1();
        let model = CodeModel::synthesize(&spec);
        let report = LintReport::generate_with(
            &model,
            &spec,
            &AnalysisOptions::default().path_insensitive(),
        );
        assert_eq!(report.accuracy.true_positives, 54);
        assert_eq!(report.accuracy.false_positives, 3, "the bounded three");
        assert_eq!(report.accuracy.false_negatives, 0);
        assert_eq!(report.accuracy.recall, 1.0);
        assert!((report.accuracy.precision - 54.0 / 57.0).abs() < 1e-12);
        assert!(report.diagnostics.iter().all(|d| !d.proven));
    }

    #[test]
    fn rule_partition_is_complete() {
        let (_, report) = report();
        let count = |r: RuleId| report.diagnostics.iter().filter(|d| d.rule == r).count();
        // 63 risky (57 system + 3 prebuilt + 3 third-party), of which 3
        // are the bounded collections.
        assert_eq!(count(RuleId::UnboundedRetention), 60);
        assert_eq!(count(RuleId::BoundedRetention), 3);
        // Signature-gated retention exists in the corpus (Table V's
        // permission-protected listeners).
        assert!(count(RuleId::SignatureGatedRetention) >= 2);
        // The base corpus has no error-path shape; JGRE004 only fires on
        // the extension fixture.
        assert_eq!(count(RuleId::ErrorPathRelease), 0);
    }

    #[test]
    fn error_path_fixture_yields_jgre004_findings() {
        let spec = AospSpec::android_6_0_1();
        let model = CodeModel::synthesize_with_error_paths(&spec);
        let report = LintReport::generate(&model, &spec);
        let jgre004: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::ErrorPathRelease)
            .collect();
        assert!(jgre004.len() >= 3, "found {}", jgre004.len());
        for d in &jgre004 {
            assert_eq!(d.verdict, LeakVerdict::ErrorPathLeak);
            assert_eq!(d.rule.severity(), Severity::Error);
            assert!(!d.witnesses.is_empty(), "{}.{}", d.service, d.method);
            for w in &d.witnesses {
                w.validate(&model)
                    .unwrap_or_else(|e| panic!("{}.{}: {e}", d.service, d.method));
            }
        }
        // The fixture must not disturb the base accuracy.
        assert_eq!(report.accuracy.true_positives, 54);
        assert_eq!(report.accuracy.false_positives, 0);
        assert_eq!(report.accuracy.false_negatives, 0);
    }

    #[test]
    fn every_diagnostic_has_a_witness_and_they_validate() {
        let (model, report) = report();
        for d in &report.diagnostics {
            assert!(
                !d.witnesses.is_empty(),
                "{}.{} has no witness",
                d.service,
                d.method
            );
            for w in &d.witnesses {
                w.validate(&model)
                    .unwrap_or_else(|e| panic!("{}.{}: {e}", d.service, d.method));
            }
        }
    }

    #[test]
    fn sarif_roundtrips_and_has_the_expected_shape() {
        let (model, report) = report();
        let sarif = report.to_sarif(&model);
        let text = serde_json::to_string_pretty(&sarif).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = parsed.get("runs").and_then(Value::as_array).unwrap();
        let driver = runs[0].get("tool").unwrap().get("driver").unwrap();
        assert_eq!(
            driver.get("name").and_then(Value::as_str),
            Some("jgre-lint")
        );
        assert_eq!(
            driver.get("rules").and_then(Value::as_array).unwrap().len(),
            4
        );
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), report.diagnostics.len());
        for result in results {
            let flows = result.get("codeFlows").and_then(Value::as_array).unwrap();
            assert!(!flows.is_empty(), "finding without a code flow");
        }
    }

    #[test]
    fn sarif_elides_shared_prefixes_after_the_first_flow() {
        let (model, report) = report();
        let sarif = report.to_sarif(&model);
        let runs = sarif.get("runs").and_then(Value::as_array).unwrap();
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        let flow_lines = |flow: &Value| -> Vec<String> {
            flow.get("threadFlows").and_then(Value::as_array).unwrap()[0]
                .get("locations")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|l| {
                    l.get("location")
                        .unwrap()
                        .get("message")
                        .unwrap()
                        .get("text")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_owned()
                })
                .collect()
        };
        let mut elided_seen = 0usize;
        for result in results {
            let flows = result.get("codeFlows").and_then(Value::as_array).unwrap();
            // The first flow is always complete: entry to sink.
            let first = flow_lines(&flows[0]);
            assert!(first[0].starts_with("IPC entry "));
            assert!(first.last().unwrap().contains("inserts the JGR"));
            for flow in &flows[1..] {
                let lines = flow_lines(flow);
                if lines[0].contains("elided") {
                    elided_seen += 1;
                    assert!(lines.last().unwrap().contains("inserts the JGR"));
                }
            }
        }
        assert!(elided_seen > 0, "no multi-witness finding shared a prefix");
    }
}
