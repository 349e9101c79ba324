//! Tables II and III — the study of existing ad hoc protections (§IV-C).

use std::fmt::Write as _;

use jgre_corpus::spec::{AospSpec, Flaw, Protection};
use jgre_framework::{CallOptions, CallStatus, FrameworkError, System};
use serde::Serialize;

use crate::ExperimentScale;

/// One Table II row: a helper-class-protected interface and the
/// demonstration that the protection is client-side only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table2Row {
    /// Service name.
    pub service: String,
    /// Helper class enforcing the threshold.
    pub helper_class: String,
    /// Vulnerable method.
    pub method: String,
    /// Retained requests the helper allowed before refusing.
    pub helper_allowed: u32,
    /// Whether direct Binder calls sailed past the helper's limit.
    pub direct_binder_bypasses: bool,
    /// Retained entries after the direct-Binder burst.
    pub direct_retained: usize,
}

/// Table II: interfaces protected only by service-helper classes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table2 {
    /// The 9 rows.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table II — helper-class protections (all bypassable)\n\
             service | helper | method | helper stops at | direct Binder bypasses\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{} | {} | {} | {} | {} (retained {})",
                r.service,
                r.helper_class,
                r.method,
                r.helper_allowed,
                if r.direct_binder_bypasses {
                    "YES"
                } else {
                    "no"
                },
                r.direct_retained,
            );
        }
        out
    }
}

/// Regenerates Table II by *executing* both paths per interface: the
/// documented helper API until it refuses, then Code-Snippet 2's direct
/// Binder loop well past the helper's limit.
pub fn table2(scale: ExperimentScale) -> Table2 {
    let spec = AospSpec::android_6_0_1();
    let mut rows = Vec::new();
    for (svc, m) in spec.vulnerable_service_interfaces() {
        let Protection::HelperThreshold {
            helper_class,
            limit,
        } = &m.protection
        else {
            continue;
        };
        let mut system = System::boot_with(scale.system_config());
        let benign = system.install_app("com.wellbehaved", m.permission);
        let mal = system.install_app("com.evil", m.permission);
        // Path 1: through the helper.
        let mut helper_allowed = 0u32;
        for _ in 0..(limit + 10) {
            match system.call_service(benign, &svc.name, &m.name, CallOptions::benign()) {
                Ok(o) if o.status.is_completed() => helper_allowed += 1,
                Ok(_) => {}
                Err(FrameworkError::HelperLimitExceeded { .. }) => break,
                Err(e) => panic!("helper path {}.{} failed: {e}", svc.name, m.name),
            }
        }
        // Path 2: direct Binder.
        let burst = (*limit as usize) * 3;
        for _ in 0..burst {
            system
                .call_service(mal, &svc.name, &m.name, CallOptions::default())
                .unwrap_or_else(|e| panic!("direct path {}.{} failed: {e}", svc.name, m.name));
        }
        let retained = system.retained_entries(&svc.name, &m.name);
        rows.push(Table2Row {
            service: svc.name.clone(),
            helper_class: helper_class.clone(),
            method: m.name.clone(),
            helper_allowed,
            direct_binder_bypasses: retained > helper_allowed as usize + burst / 2,
            direct_retained: retained,
        });
    }
    rows.sort_by(|a, b| (&a.service, &a.method).cmp(&(&b.service, &b.method)));
    Table2 { rows }
}

/// One Table III row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table3Row {
    /// Service name.
    pub service: String,
    /// Method.
    pub method: String,
    /// Whether honest repeated calls were capped.
    pub honest_capped: bool,
    /// Whether the `"android"` package spoof broke through.
    pub spoof_bypasses: bool,
    /// The paper's verdict column: protected?
    pub protected: bool,
}

/// Table III: per-process server-side limits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table3 {
    /// The 4 rows.
    pub rows: Vec<Table3Row>,
}

impl Table3 {
    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table III — per-process server-side limits\nservice | method | protected?\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{} | {} | {}{}",
                r.service,
                r.method,
                if r.protected { "Yes" } else { "No" },
                if r.spoof_bypasses {
                    " (package-name spoof bypasses)"
                } else {
                    ""
                },
            );
        }
        out
    }
}

/// Regenerates Table III: drive each per-process-limited interface
/// honestly past its cap, then with the `pkg="android"` spoof.
pub fn table3(scale: ExperimentScale) -> Table3 {
    let spec = AospSpec::android_6_0_1();
    let mut rows = Vec::new();
    for svc in &spec.services {
        for m in &svc.methods {
            let Protection::PerProcessLimit { limit, flaw } = &m.protection else {
                continue;
            };
            let mut system = System::boot_with(scale.system_config());
            let app = system.install_app("com.prober", m.permission);
            let mut honest_completed = 0usize;
            for _ in 0..(*limit as usize + 20) {
                match system
                    .call_service(app, &svc.name, &m.name, CallOptions::default())
                    .unwrap_or_else(|e| panic!("{}.{}: {e}", svc.name, m.name))
                {
                    o if o.status == CallStatus::Completed => honest_completed += 1,
                    _ => {}
                }
            }
            let honest_capped = honest_completed <= *limit as usize;
            let before = system.retained_entries(&svc.name, &m.name);
            let spoof = CallOptions {
                spoof_system_package: true,
                ..CallOptions::default()
            };
            let mut spoof_completed = 0usize;
            for _ in 0..(*limit as usize + 20) {
                if system
                    .call_service(app, &svc.name, &m.name, spoof.clone())
                    .unwrap_or_else(|e| panic!("{}.{}: {e}", svc.name, m.name))
                    .status
                    .is_completed()
                {
                    spoof_completed += 1;
                }
            }
            let after = system.retained_entries(&svc.name, &m.name);
            let spoof_bypasses = after > before && spoof_completed > *limit as usize / 2;
            rows.push(Table3Row {
                service: svc.name.clone(),
                method: m.name.clone(),
                honest_capped,
                spoof_bypasses,
                protected: honest_capped && !spoof_bypasses,
            });
            debug_assert_eq!(spoof_bypasses, flaw == &Some(Flaw::SystemPackageSpoof));
        }
    }
    rows.sort_by(|a, b| (&a.service, &a.method).cmp(&(&b.service, &b.method)));
    Table3 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_all_nine_bypassable() {
        let t = table2(ExperimentScale::quick());
        assert_eq!(t.rows.len(), 9);
        for r in &t.rows {
            assert!(
                r.direct_binder_bypasses,
                "{}.{} not bypassed",
                r.service, r.method
            );
            assert!(r.helper_allowed > 0, "helper must allow some use");
        }
        let wifi = t
            .rows
            .iter()
            .find(|r| r.service == "wifi" && r.method == "acquireWifiLock")
            .unwrap();
        assert_eq!(wifi.helper_allowed, 50, "MAX_ACTIVE_LOCKS");
        assert_eq!(wifi.helper_class, "WifiManager");
    }

    #[test]
    fn table3_matches_paper_verdicts() {
        let t = table3(ExperimentScale::quick());
        assert_eq!(t.rows.len(), 4);
        let verdict = |svc: &str, m: &str| {
            t.rows
                .iter()
                .find(|r| r.service == svc && r.method == m)
                .unwrap_or_else(|| panic!("missing {svc}.{m}"))
        };
        let toast = verdict("notification", "enqueueToast");
        assert!(!toast.protected);
        assert!(toast.spoof_bypasses);
        assert!(verdict("display", "registerCallback").protected);
        assert!(verdict("input", "registerInputDevicesChangedListener").protected);
        assert!(verdict("input", "registerTabletModeChangedListener").protected);
        assert!(t.render().contains("package-name spoof bypasses"));
    }
}
