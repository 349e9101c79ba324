//! Step 4: dynamic verification (§III-D).
//!
//! For each statically risky interface the verifier generates a test case
//! (the paper does this semi-automatically with Javapoet), fires a burst of
//! IPC requests at the simulated device, triggers the target's garbage
//! collector periodically (the DDMS step), and reads the JGR growth off the
//! runtime. An interface is **confirmed** when its JGR footprint grows
//! linearly with the request count across collections; it is **cleared**
//! when a server-side bound holds. When an honest test case is bounded,
//! the verifier retries with the `"android"` package spoof — which is how
//! `enqueueToast`'s flawed protection is caught while the display/input
//! per-process limits survive.

use jgre_corpus::spec::ProtectionLevel;
use jgre_corpus::CodeModel;
use jgre_framework::{CallOptions, CallStatus, FrameworkError, System};
use serde::Serialize;

use crate::{RiskyInterface, ServiceKind};

/// Verifier tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VerifierConfig {
    /// IPC requests per interface (the paper uses 60 000; the default is
    /// smaller because the simulated device is deterministic).
    pub calls: usize,
    /// Trigger a GC on the host every this many calls.
    pub gc_every: usize,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        Self {
            calls: 400,
            gc_every: 100,
        }
    }
}

/// Outcome of dynamically testing one risky interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedInterface<'a> {
    /// The interface under test.
    pub risky: RiskyInterface<'a>,
    /// JGR entries that survived GC per completed request (×1000; a value
    /// near or above 1000 means every request leaks at least one entry).
    pub leak_per_call_milli: u64,
    /// Whether the honest test case was bounded but the package spoof
    /// bypassed the protection (the `enqueueToast` flaw).
    pub bypassed_protection: bool,
    /// Verdict.
    pub confirmed: bool,
}

/// Drives risky interfaces against a live [`System`].
#[derive(Debug)]
pub struct JgreVerifier {
    config: VerifierConfig,
}

impl JgreVerifier {
    /// Creates a verifier.
    pub fn new(config: VerifierConfig) -> Self {
        Self { config }
    }

    /// Tests every risky interface that exists on the device (system
    /// services and prebuilt-app services; third-party exports are not
    /// installed on the image and are reported static-only). The code
    /// model supplies the PScout permission map so each generated test
    /// case requests the right permissions in its manifest.
    pub fn verify<'a>(
        &self,
        system: &mut System,
        model: &CodeModel,
        risky: &[RiskyInterface<'a>],
    ) -> Vec<VerifiedInterface<'a>> {
        let mut out = Vec::new();
        for (i, r) in risky.iter().enumerate() {
            let Some(service_name) = resolve_service_name(system, r) else {
                continue;
            };
            out.push(self.verify_one(system, model, r, &service_name, r.ipc.method, i));
        }
        out
    }

    fn verify_one<'a>(
        &self,
        system: &mut System,
        model: &CodeModel,
        risky: &RiskyInterface<'a>,
        service: &str,
        method: &str,
        index: usize,
    ) -> VerifiedInterface<'a> {
        // Honest attempt first.
        let honest = self.drive(system, model, risky, service, method, index, false);
        if honest.leaked_per_call_milli() >= 500 {
            return VerifiedInterface {
                risky: risky.clone(),
                leak_per_call_milli: honest.leaked_per_call_milli(),
                bypassed_protection: false,
                confirmed: true,
            };
        }
        // Bounded honestly: craft the spoofed test case.
        let spoofed = self.drive(system, model, risky, service, method, index + 10_000, true);
        let confirmed = spoofed.leaked_per_call_milli() >= 500;
        VerifiedInterface {
            risky: risky.clone(),
            leak_per_call_milli: spoofed
                .leaked_per_call_milli()
                .max(honest.leaked_per_call_milli()),
            bypassed_protection: confirmed,
            confirmed,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        system: &mut System,
        model: &CodeModel,
        risky: &RiskyInterface,
        service: &str,
        method: &str,
        index: usize,
        spoof: bool,
    ) -> DriveResult {
        // Fresh test app per attempt, granted whatever non-signature
        // permissions the method demands (the analyst's manifest).
        let app = system.install_app(format!("com.jgre.verifier{index}.{spoof}"), []);
        if let Some(mid) = risky.ipc.java {
            // The permission map came from static analysis; grant it.
            // (Signature-guarded methods were already sifted.)
            for p in &model.method(mid).permission_checks {
                if p.level() != ProtectionLevel::Signature {
                    system
                        .grant_permission(app, *p)
                        .expect("app was just installed");
                }
            }
        }
        let host = match system.service_info(service) {
            Some(info) => info.host,
            None => return DriveResult::empty(),
        };
        let jgr_before = system.jgr_count(host).unwrap_or(0);
        let mut completed = 0usize;
        for n in 0..self.config.calls {
            let options = CallOptions {
                spoof_system_package: spoof,
                ..CallOptions::default()
            };
            match system.call_service(app, service, method, options) {
                Ok(o) if o.status == CallStatus::Completed => completed += 1,
                Ok(_) => {}
                Err(FrameworkError::PermissionDenied { .. }) => return DriveResult::empty(),
                Err(_) => break,
            }
            if self.config.gc_every > 0 && (n + 1) % self.config.gc_every == 0 {
                system.gc_process(host);
            }
        }
        system.gc_process(host);
        let jgr_after = system.jgr_count(host).unwrap_or(0);
        // Tear the test app down so runs compose on a shared device;
        // killing it releases whatever it leaked.
        let leaked = jgr_after.saturating_sub(jgr_before);
        system.kill_app(app);
        DriveResult {
            attempts: self.config.calls,
            completed,
            leaked,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DriveResult {
    attempts: usize,
    completed: usize,
    leaked: usize,
}

impl DriveResult {
    fn empty() -> Self {
        Self {
            attempts: 0,
            completed: 0,
            leaked: 0,
        }
    }

    /// Surviving JGR entries per attempted request, ×1000. Completed
    /// requests are required: a method that always throws leaks nothing.
    fn leaked_per_call_milli(&self) -> u64 {
        if self.attempts == 0 || self.completed == 0 {
            return 0;
        }
        (self.leaked as u64 * 1_000) / self.attempts as u64
    }
}

/// Maps a risky interface to its registered service name on the device.
fn resolve_service_name(system: &System, risky: &RiskyInterface) -> Option<String> {
    match &risky.ipc.kind {
        ServiceKind::SystemService | ServiceKind::NativeService => {
            Some(risky.ipc.service.to_owned())
        }
        ServiceKind::PrebuiltApp(pkg) => {
            let app = system
                .spec()
                .prebuilt_apps
                .iter()
                .find(|a| &a.package == pkg)?;
            app.services
                .iter()
                .find(|s| s.interface == risky.ipc.interface)
                .map(|s| s.name.clone())
        }
        ServiceKind::ThirdPartyApp(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataflowDetector, IpcMethodExtractor, JgrEntryExtractor};
    use jgre_corpus::{spec::AospSpec, CodeModel};

    #[test]
    fn verifier_confirms_and_clears_correctly_on_a_sample() {
        let spec = AospSpec::android_6_0_1();
        let model = CodeModel::synthesize(&spec);
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let out = DataflowDetector::new(&model, &entries)
            .detect(&ipc)
            .detector;

        // Pick three interesting interfaces: plainly vulnerable, soundly
        // bounded, flawed-bounded.
        let pick = |svc: &str, m: &str| {
            out.risky
                .iter()
                .find(|r| r.ipc.service == svc && r.ipc.method == m)
                .unwrap_or_else(|| panic!("{svc}.{m} not risky"))
                .clone()
        };
        let sample = vec![
            pick("clipboard", "addPrimaryClipChangedListener"),
            pick("display", "registerCallback"),
            pick("notification", "enqueueToast"),
        ];
        let mut system = System::boot(3);
        let verifier = JgreVerifier::new(VerifierConfig {
            calls: 120,
            gc_every: 40,
        });
        let results = verifier.verify(&mut system, &model, &sample);
        assert_eq!(results.len(), 3);
        let by_name = |m: &str| results.iter().find(|v| v.risky.ipc.method == m).unwrap();
        assert!(by_name("addPrimaryClipChangedListener").confirmed);
        assert!(!by_name("registerCallback").confirmed, "sound bound holds");
        let toast = by_name("enqueueToast");
        assert!(toast.confirmed, "spoofed test case must bypass");
        assert!(toast.bypassed_protection);
    }
}
