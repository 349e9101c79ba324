//! Aggregated analysis results — the source for the paper's §IV tables.

use std::collections::BTreeSet;

use jgre_corpus::spec::Permission;
use serde::{Deserialize, Serialize};

use crate::{NativePathAnalysis, ServiceKind, SiftReason, SolverStats};

/// How a risky interface fared in step 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerificationStatus {
    /// Dynamically confirmed exploitable.
    Confirmed,
    /// A server-side bound held; cleared.
    Cleared,
    /// Not dynamically testable on the image (third-party exports);
    /// reported from static evidence only.
    StaticOnly,
}

/// One confirmed (or cleared) vulnerability row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfirmedVulnerability {
    /// Service (or exporting class for app services).
    pub service: String,
    /// AIDL interface.
    pub interface: String,
    /// Method.
    pub method: String,
    /// Exposure kind.
    pub kind: ServiceKind,
    /// Permissions a third-party caller needs (from the PScout map).
    pub permissions: Vec<Permission>,
    /// Verification outcome.
    pub status: VerificationStatus,
    /// Whether the confirmation required bypassing an existing (flawed)
    /// protection.
    pub bypassed_protection: bool,
}

/// The full pipeline report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Registered system services discovered (104).
    pub services_total: usize,
    /// Of which native (5).
    pub native_services: usize,
    /// Total IPC methods discovered across services and apps.
    pub ipc_methods_total: usize,
    /// Native path analysis (147 / 67 / 80).
    pub native_paths: NativePathAnalysis,
    /// Java JGR entry count (methods whose JNI target reaches `Add`).
    pub java_jgr_entries: usize,
    /// Statically risky after sifting, before verification.
    pub risky_total: usize,
    /// Sift statistics.
    pub sift_counts: Vec<(SiftReason, usize)>,
    /// Dataflow solver statistics (CFGs built, blocks, fixpoint work).
    pub solver: SolverStats,
    /// Every risky row with its verification status.
    pub rows: Vec<ConfirmedVulnerability>,
}

impl AnalysisReport {
    /// Rows confirmed in system services — the paper's 54.
    pub fn confirmed_service_interfaces(&self) -> Vec<&ConfirmedVulnerability> {
        self.rows
            .iter()
            .filter(|r| {
                r.kind == ServiceKind::SystemService && r.status == VerificationStatus::Confirmed
            })
            .collect()
    }

    /// Distinct vulnerable system services — the paper's 32.
    pub fn confirmed_services(&self) -> BTreeSet<&str> {
        self.confirmed_service_interfaces()
            .into_iter()
            .map(|r| r.service.as_str())
            .collect()
    }

    /// Confirmed rows in prebuilt apps — the paper's 3.
    pub fn confirmed_prebuilt_interfaces(&self) -> Vec<&ConfirmedVulnerability> {
        self.rows
            .iter()
            .filter(|r| {
                matches!(r.kind, ServiceKind::PrebuiltApp(_))
                    && r.status == VerificationStatus::Confirmed
            })
            .collect()
    }

    /// Statically flagged third-party app rows — the paper's 3 (Table V).
    pub fn third_party_interfaces(&self) -> Vec<&ConfirmedVulnerability> {
        self.rows
            .iter()
            .filter(|r| matches!(r.kind, ServiceKind::ThirdPartyApp(_)))
            .collect()
    }

    /// Vulnerable system services reachable with zero permissions — the
    /// paper's 22.
    pub fn zero_permission_services(&self) -> BTreeSet<&str> {
        self.confirmed_service_interfaces()
            .into_iter()
            .filter(|r| r.permissions.is_empty())
            .map(|r| r.service.as_str())
            .collect()
    }

    /// Renders a plain-text summary block (used by examples and
    /// EXPERIMENTS.md generation).
    pub fn summary(&self) -> String {
        let confirmed = self.confirmed_service_interfaces().len();
        let services = self.confirmed_services().len();
        format!(
            "services: {} ({} native); IPC methods: {}; native paths: {} total / {} init-only / {} exploitable; \
             java JGR entries: {}; risky after sift: {}; confirmed: {} interfaces in {} services; \
             prebuilt: {} interfaces; third-party: {}; zero-permission services: {}",
            self.services_total,
            self.native_services,
            self.ipc_methods_total,
            self.native_paths.total_paths,
            self.native_paths.init_only_paths,
            self.native_paths.exploitable_paths,
            self.java_jgr_entries,
            self.risky_total,
            confirmed,
            services,
            self.confirmed_prebuilt_interfaces().len(),
            self.third_party_interfaces().len(),
            self.zero_permission_services().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(service: &str, method: &str, status: VerificationStatus) -> ConfirmedVulnerability {
        ConfirmedVulnerability {
            service: service.to_owned(),
            interface: format!("I{service}"),
            method: method.to_owned(),
            kind: ServiceKind::SystemService,
            permissions: Vec::new(),
            status,
            bypassed_protection: false,
        }
    }

    #[test]
    fn selectors_filter_correctly() {
        let report = AnalysisReport {
            services_total: 2,
            native_services: 0,
            ipc_methods_total: 3,
            native_paths: NativePathAnalysis {
                total_paths: 0,
                init_only_paths: 0,
                exploitable_paths: 0,
                jgr_jni_natives: BTreeSet::new(),
            },
            java_jgr_entries: 0,
            risky_total: 3,
            sift_counts: Vec::new(),
            solver: SolverStats::default(),
            rows: vec![
                row("a", "m1", VerificationStatus::Confirmed),
                row("a", "m2", VerificationStatus::Confirmed),
                row("b", "m3", VerificationStatus::Cleared),
            ],
        };
        assert_eq!(report.confirmed_service_interfaces().len(), 2);
        assert_eq!(report.confirmed_services().len(), 1);
        assert_eq!(report.zero_permission_services().len(), 1);
        assert!(report
            .summary()
            .contains("confirmed: 2 interfaces in 1 services"));
    }
}
