//! The assembled four-step pipeline (Figure 1).

use std::collections::BTreeMap;

use jgre_corpus::CodeModel;
use jgre_framework::System;

use crate::{
    AnalysisReport, ConfirmedVulnerability, DataflowDetector, IpcMethodExtractor,
    JgrEntryExtractor, JgreVerifier, ServiceKind, SiftReason, VerificationStatus, VerifierConfig,
};

/// Owns the code model and runs the methodology end to end.
///
/// # Example
///
/// ```no_run
/// use jgre_analysis::{Pipeline, VerifierConfig};
/// use jgre_corpus::{spec::AospSpec, CodeModel};
/// use jgre_framework::System;
///
/// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
/// let mut device = System::boot(0);
/// let report = Pipeline::new(model).run_full(&mut device, VerifierConfig::default());
/// assert_eq!(report.confirmed_service_interfaces().len(), 54);
/// ```
#[derive(Debug)]
pub struct Pipeline {
    model: CodeModel,
}

impl Pipeline {
    /// Wraps a synthesised (or otherwise constructed) code model.
    pub fn new(model: CodeModel) -> Self {
        Self { model }
    }

    /// Read access to the model.
    pub fn model(&self) -> &CodeModel {
        &self.model
    }

    /// Steps 1–3 only; every risky row is reported
    /// [`VerificationStatus::StaticOnly`].
    pub fn run_static(&self) -> AnalysisReport {
        self.run(None)
    }

    /// The full pipeline including dynamic verification against `system`.
    pub fn run_full(&self, system: &mut System, config: VerifierConfig) -> AnalysisReport {
        self.run(Some((system, config)))
    }

    fn run(&self, dynamic: Option<(&mut System, VerifierConfig)>) -> AnalysisReport {
        // Step 1: IPC surface.
        let ipc_methods = IpcMethodExtractor::new(&self.model).extract();
        let services_total = ipc_methods
            .iter()
            .filter(|m| {
                matches!(
                    m.kind,
                    ServiceKind::SystemService | ServiceKind::NativeService
                )
            })
            .map(|m| m.service)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let native_services = ipc_methods
            .iter()
            .filter(|m| m.kind == ServiceKind::NativeService)
            .map(|m| m.service)
            .collect::<std::collections::BTreeSet<_>>()
            .len();

        // Step 2: JGR entries.
        let entries = JgrEntryExtractor::new(&self.model).extract();

        // Step 3: dataflow leak-check detection + sifting + permission
        // filter.
        let flow = DataflowDetector::new(&self.model, &entries).detect(&ipc_methods);
        let output = &flow.detector;
        let mut sift_counts: BTreeMap<SiftReason, usize> = BTreeMap::new();
        for (_, reason) in &output.sifted {
            *sift_counts.entry(*reason).or_insert(0) += 1;
        }

        // Step 4: dynamic verification (when a device is supplied).
        let verified = dynamic.map(|(system, config)| {
            let results = JgreVerifier::new(config).verify(system, &self.model, &output.risky);
            results
                .into_iter()
                .map(|v| {
                    (
                        (v.risky.ipc.service, v.risky.ipc.method),
                        (v.confirmed, v.bypassed_protection),
                    )
                })
                .collect::<BTreeMap<_, _>>()
        });

        let rows: Vec<ConfirmedVulnerability> = output
            .risky
            .iter()
            .map(|r| {
                let permissions = r
                    .ipc
                    .java
                    .map(|mid| self.model.method(mid).permission_checks.clone())
                    .unwrap_or_default();
                let key = (r.ipc.service, r.ipc.method);
                let (status, bypassed) = match &verified {
                    None => (VerificationStatus::StaticOnly, false),
                    Some(map) => match map.get(&key) {
                        Some((true, bypassed)) => (VerificationStatus::Confirmed, *bypassed),
                        Some((false, _)) => (VerificationStatus::Cleared, false),
                        // Not installable on the image (third-party).
                        None => (VerificationStatus::StaticOnly, false),
                    },
                };
                ConfirmedVulnerability {
                    service: r.ipc.service.to_owned(),
                    interface: r.ipc.interface.to_string(),
                    method: r.ipc.method.to_owned(),
                    kind: r.ipc.kind.clone(),
                    permissions,
                    status,
                    bypassed_protection: bypassed,
                }
            })
            .collect();

        AnalysisReport {
            services_total,
            native_services,
            ipc_methods_total: ipc_methods.len(),
            native_paths: entries.native.clone(),
            java_jgr_entries: entries.java_entries.len(),
            risky_total: output.risky.len(),
            sift_counts: sift_counts.into_iter().collect(),
            solver: flow.stats.clone(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_corpus::spec::AospSpec;

    #[test]
    fn static_pipeline_reproduces_headline_counts() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let report = Pipeline::new(model).run_static();
        assert_eq!(report.services_total, 104);
        assert_eq!(report.native_services, 5);
        assert_eq!(report.native_paths.total_paths, 147);
        assert_eq!(report.native_paths.init_only_paths, 67);
        assert!(report.ipc_methods_total > 2_000);
        // 57 system (54 + 3 bounded) + 3 prebuilt + 3 third-party.
        assert_eq!(report.risky_total, 63);
    }
}
