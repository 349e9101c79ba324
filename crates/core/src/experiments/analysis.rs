//! T-ANALYSIS, Table I, Table IV, Table V — pipeline-derived results.

use std::fmt::Write as _;

use jgre_analysis::{Pipeline, ServiceKind, VerificationStatus, VerifierConfig};
use jgre_corpus::{spec::AospSpec, CodeModel};
use jgre_framework::System;
use serde::Serialize;

use crate::ExperimentScale;

/// §IV headline numbers, re-derived by the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AnalysisHeadline {
    /// System services discovered.
    pub services_total: usize,
    /// Native services among them.
    pub native_services: usize,
    /// Total IPC methods discovered.
    pub ipc_methods: usize,
    /// Native paths to `IndirectReferenceTable::Add`.
    pub native_paths_total: usize,
    /// Init-only paths filtered out.
    pub native_paths_init_only: usize,
    /// Confirmed vulnerable interfaces in system services.
    pub vulnerable_interfaces: usize,
    /// Distinct vulnerable system services.
    pub vulnerable_services: usize,
    /// Services attackable with zero permissions.
    pub zero_permission_services: usize,
    /// Confirmed vulnerable interfaces in prebuilt apps.
    pub prebuilt_interfaces: usize,
    /// Statically flagged third-party apps.
    pub third_party_apps: usize,
}

impl AnalysisHeadline {
    /// Plain-text summary.
    pub fn render(&self) -> String {
        format!(
            "T-ANALYSIS (paper §IV)\n\
             services analysed:        {} ({} native)\n\
             IPC methods discovered:   {}\n\
             native JGR paths:         {} total, {} init-only filtered\n\
             vulnerable interfaces:    {} in {} system services\n\
             zero-permission services: {}\n\
             prebuilt-app interfaces:  {}\n\
             third-party apps flagged: {}\n",
            self.services_total,
            self.native_services,
            self.ipc_methods,
            self.native_paths_total,
            self.native_paths_init_only,
            self.vulnerable_interfaces,
            self.vulnerable_services,
            self.zero_permission_services,
            self.prebuilt_interfaces,
            self.third_party_apps,
        )
    }
}

fn run_pipeline(scale: ExperimentScale) -> jgre_analysis::AnalysisReport {
    let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let mut device = System::boot_with(scale.system_config());
    Pipeline::new(model).run_full(
        &mut device,
        VerifierConfig {
            calls: 150,
            gc_every: 50,
        },
    )
}

/// Runs the four-step pipeline end to end and summarises §IV.
pub fn analysis_headline(scale: ExperimentScale) -> AnalysisHeadline {
    let report = run_pipeline(scale);
    AnalysisHeadline {
        services_total: report.services_total,
        native_services: report.native_services,
        ipc_methods: report.ipc_methods_total,
        native_paths_total: report.native_paths.total_paths,
        native_paths_init_only: report.native_paths.init_only_paths,
        vulnerable_interfaces: report.confirmed_service_interfaces().len(),
        vulnerable_services: report.confirmed_services().len(),
        zero_permission_services: report.zero_permission_services().len(),
        prebuilt_interfaces: report.confirmed_prebuilt_interfaces().len(),
        third_party_apps: report.third_party_interfaces().len(),
    }
}

/// One Table I row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table1Row {
    /// Service name.
    pub service: String,
    /// Vulnerable interface (method).
    pub method: String,
    /// Required permission manifest names with protection levels.
    pub permissions: Vec<String>,
}

/// Table I: unprotected vulnerable IPC interfaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table1 {
    /// The rows, service-sorted.
    pub rows: Vec<Table1Row>,
    /// Permission split over services: (zero-perm, normal, dangerous).
    pub service_split: (usize, usize, usize),
}

impl Table1 {
    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table I — unprotected vulnerable IPC interfaces\n\
             service | interface | permission\n",
        );
        for r in &self.rows {
            let perms = if r.permissions.is_empty() {
                "-".to_owned()
            } else {
                r.permissions.join(", ")
            };
            let _ = writeln!(out, "{} | {} | {}", r.service, r.method, perms);
        }
        let _ = writeln!(
            out,
            "services: {} zero-permission, {} normal, {} dangerous",
            self.service_split.0, self.service_split.1, self.service_split.2
        );
        out
    }
}

/// Regenerates Table I from the pipeline output joined with the
/// ground-truth protection info (the paper's authors read the same from
/// the AOSP sources).
pub fn table1(scale: ExperimentScale) -> Table1 {
    use jgre_corpus::spec::{Protection, ProtectionLevel};
    let spec = AospSpec::android_6_0_1();
    let report = run_pipeline(scale);
    let mut rows = Vec::new();
    for row in report.confirmed_service_interfaces() {
        let unprotected = spec
            .service(&row.service)
            .and_then(|s| s.method(&row.method))
            .map(|m| matches!(m.protection, Protection::None))
            .unwrap_or(false);
        if unprotected {
            rows.push(Table1Row {
                service: row.service.clone(),
                method: row.method.clone(),
                permissions: row
                    .permissions
                    .iter()
                    .map(|p| format!("{} ({:?})", p.manifest_name(), p.level()))
                    .collect(),
            });
        }
    }
    rows.sort_by(|a, b| (&a.service, &a.method).cmp(&(&b.service, &b.method)));
    // Service-level split by least-privileged interface.
    let mut per_service: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &rows {
        let spec_m = spec
            .service(&r.service)
            .and_then(|s| s.method(&r.method))
            .expect("row came from the spec");
        let level = match spec_m.permission.map(|p| p.level()) {
            None => 0,
            Some(ProtectionLevel::Normal) => 1,
            Some(ProtectionLevel::Dangerous) => 2,
            Some(ProtectionLevel::Signature) => 3,
        };
        per_service
            .entry(r.service.as_str())
            .and_modify(|l| *l = (*l).min(level))
            .or_insert(level);
    }
    let split = per_service.values().fold((0, 0, 0), |acc, &l| match l {
        0 => (acc.0 + 1, acc.1, acc.2),
        1 => (acc.0, acc.1 + 1, acc.2),
        _ => (acc.0, acc.1, acc.2 + 1),
    });
    Table1 {
        rows,
        service_split: split,
    }
}

/// One Table IV row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table4Row {
    /// App display name.
    pub app: String,
    /// AOSP code path.
    pub code_path: String,
    /// Vulnerable IPC method.
    pub method: String,
}

/// Table IV: vulnerable prebuilt core apps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table4 {
    /// The rows.
    pub rows: Vec<Table4Row>,
    /// Prebuilt apps scanned (88).
    pub apps_scanned: usize,
}

impl Table4 {
    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Table IV — vulnerable prebuilt core apps ({} scanned)\napp | code path | method\n",
            self.apps_scanned
        );
        for r in &self.rows {
            let _ = writeln!(out, "{} | {} | {}", r.app, r.code_path, r.method);
        }
        out
    }
}

/// Regenerates Table IV.
pub fn table4(scale: ExperimentScale) -> Table4 {
    let spec = AospSpec::android_6_0_1();
    let report = run_pipeline(scale);
    let mut rows = Vec::new();
    for row in report.confirmed_prebuilt_interfaces() {
        let ServiceKind::PrebuiltApp(pkg) = &row.kind else {
            continue;
        };
        let app = spec
            .prebuilt_apps
            .iter()
            .find(|a| &a.package == pkg)
            .expect("pipeline rows map to spec apps");
        rows.push(Table4Row {
            app: app.name.clone(),
            code_path: app.code_path.clone(),
            method: format!("{}.{}", row.interface, row.method),
        });
    }
    rows.sort_by(|a, b| (&a.app, &a.method).cmp(&(&b.app, &b.method)));
    Table4 {
        rows,
        apps_scanned: spec.prebuilt_apps.len(),
    }
}

/// One Table V row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table5Row {
    /// App name.
    pub app: String,
    /// Play-store download band.
    pub downloads: String,
    /// Vulnerable exported interface.
    pub interface: String,
    /// Verification status (third-party apps are static-only).
    pub status: String,
}

/// Table V: vulnerable third-party apps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table5 {
    /// The rows.
    pub rows: Vec<Table5Row>,
    /// Apps scanned (1000).
    pub apps_scanned: usize,
}

impl Table5 {
    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Table V — vulnerable third-party apps ({} scanned)\napp | downloads | interface\n",
            self.apps_scanned
        );
        for r in &self.rows {
            let _ = writeln!(out, "{} | {} | {}", r.app, r.downloads, r.interface);
        }
        out
    }
}

/// Regenerates Table V.
pub fn table5(scale: ExperimentScale) -> Table5 {
    let spec = AospSpec::android_6_0_1();
    let report = run_pipeline(scale);
    let mut rows = Vec::new();
    for row in report.third_party_interfaces() {
        let ServiceKind::ThirdPartyApp(pkg) = &row.kind else {
            continue;
        };
        let app = spec
            .third_party_apps
            .iter()
            .find(|a| &a.package == pkg)
            .expect("pipeline rows map to spec apps");
        rows.push(Table5Row {
            app: app.name.clone(),
            downloads: app.downloads.clone(),
            interface: format!("{}.{}", row.interface, row.method),
            status: match row.status {
                VerificationStatus::StaticOnly => "static".to_owned(),
                VerificationStatus::Confirmed => "confirmed".to_owned(),
                VerificationStatus::Cleared => "cleared".to_owned(),
            },
        });
    }
    rows.sort_by(|a, b| a.app.cmp(&b.app));
    Table5 {
        rows,
        apps_scanned: spec.third_party_apps.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_matches_paper() {
        let h = analysis_headline(ExperimentScale::quick());
        assert_eq!(h.services_total, 104);
        assert_eq!(h.vulnerable_interfaces, 54);
        assert_eq!(h.vulnerable_services, 32);
        assert_eq!(h.zero_permission_services, 22);
        assert_eq!(h.prebuilt_interfaces, 3);
        assert_eq!(h.third_party_apps, 3);
        assert!(h.render().contains("54 in 32 system services"));
    }

    #[test]
    fn table1_has_44_rows_and_the_paper_split() {
        let t = table1(ExperimentScale::quick());
        assert_eq!(t.rows.len(), 44);
        assert_eq!(t.service_split, (19, 4, 3));
        assert!(t
            .render()
            .contains("19 zero-permission, 4 normal, 3 dangerous"));
    }

    #[test]
    fn table4_matches_paper_rows() {
        let t = table4(ExperimentScale::quick());
        assert_eq!(t.apps_scanned, 88);
        assert_eq!(t.rows.len(), 3);
        let apps: std::collections::BTreeSet<_> = t.rows.iter().map(|r| r.app.as_str()).collect();
        assert_eq!(apps, ["Bluetooth", "PicoTts"].into_iter().collect());
        assert!(t.rows.iter().any(|r| r.code_path == "external/svox/pico"));
    }

    #[test]
    fn table5_matches_paper_rows() {
        let t = table5(ExperimentScale::quick());
        assert_eq!(t.apps_scanned, 1_000);
        assert_eq!(t.rows.len(), 3);
        let apps: std::collections::BTreeSet<_> = t.rows.iter().map(|r| r.app.as_str()).collect();
        assert_eq!(
            apps,
            ["Google Text-to-speech", "SnapMovie", "Supernet VPN"]
                .into_iter()
                .collect()
        );
    }
}
