//! Step 1: the IPC method extractor (§III-A).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::collections::BTreeMap;

use jgre_corpus::{CodeModel, MethodId, Origin};
use serde::Serialize;

use crate::NameIndex;

/// Who exposes an IPC method.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum ServiceKind {
    /// A registered system service (Java, hosted in `system_server`).
    SystemService,
    /// A registered native system service.
    NativeService,
    /// A service exported by a prebuilt app, by package.
    PrebuiltApp(String),
    /// A service exported by a third-party app, by package.
    ThirdPartyApp(String),
}

/// One discovered IPC method. Its names are borrowed from the
/// [`CodeModel`] it was extracted from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpcMethod<'m> {
    /// Service name for registered services; the exporting class's
    /// interface for app services.
    pub service: &'m str,
    /// AIDL interface descriptor; a native service has none in the
    /// model, and renders as `native:{service}`.
    pub interface: Cow<'m, str>,
    /// Method name.
    pub method: &'m str,
    /// The Java method body, when there is one (native services have
    /// none).
    pub java: Option<MethodId>,
    /// Exposure kind.
    pub kind: ServiceKind,
}

/// Extracts the complete IPC surface from a [`CodeModel`].
///
/// # Example
///
/// ```
/// use jgre_analysis::IpcMethodExtractor;
/// use jgre_corpus::{spec::AospSpec, CodeModel};
///
/// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
/// let methods = IpcMethodExtractor::new(&model).extract();
/// assert!(methods.len() > 2_000, "thousands of IPC methods");
/// ```
#[derive(Debug)]
pub struct IpcMethodExtractor<'m> {
    model: &'m CodeModel,
}

impl<'m> IpcMethodExtractor<'m> {
    /// Wraps a code model.
    pub fn new(model: &'m CodeModel) -> Self {
        Self { model }
    }

    /// Runs the extraction. Every name is borrowed from the model; only a
    /// native service's `native:{service}` interface is allocated.
    pub fn extract(&self) -> Vec<IpcMethod<'m>> {
        let names = NameIndex::new(self.model);
        let mut out = Vec::new();
        self.extract_registered_java_services(&names, &mut out);
        self.extract_native_services(&mut out);
        self.extract_app_services(&names, &mut out);
        out
    }

    /// Services registered from Java through `ServiceManager.addService` /
    /// `publishBinderService`: collect the (service name → class) map from
    /// the registration call sites, then take every method of the class
    /// that overrides its AIDL interface.
    fn extract_registered_java_services(
        &self,
        names: &NameIndex<'m>,
        out: &mut Vec<IpcMethod<'m>>,
    ) {
        let mut registrations: BTreeMap<&str, &str> = BTreeMap::new();
        for m in &self.model.methods {
            if let Some((service, class)) = &m.registers_service {
                registrations.insert(service.as_str(), class.as_str());
            }
        }
        for (service, class_name) in registrations {
            let Some(class) = names.find_class(class_name) else {
                continue;
            };
            for &mid in &class.methods {
                let m = self.model.method(mid);
                if let Some(iface) = &m.overrides_aidl {
                    out.push(IpcMethod {
                        service,
                        interface: Cow::Borrowed(iface),
                        method: &m.name,
                        java: Some(mid),
                        kind: ServiceKind::SystemService,
                    });
                }
            }
        }
    }

    /// The 5 native services: registration and IPC entry points both live
    /// in the native function table.
    fn extract_native_services(&self, out: &mut Vec<IpcMethod<'m>>) {
        for n in &self.model.native_functions {
            if let Some((service, method)) = &n.native_ipc {
                out.push(IpcMethod {
                    service,
                    interface: Cow::Owned(format!("native:{service}")),
                    method,
                    java: None,
                    kind: ServiceKind::NativeService,
                });
            }
        }
    }

    /// App services: classes returning an IBinder interface from
    /// `asBinder()` (directly, or inherited from an abstract service base
    /// class such as `TextToSpeechService`). For a subclass of a base
    /// class, the base's default IPC implementations are exported by the
    /// *app* (PicoTts inherits the vulnerable `setCallback`).
    fn extract_app_services(&self, names: &NameIndex<'m>, out: &mut Vec<IpcMethod<'m>>) {
        for class in &self.model.classes {
            let kind = match &class.origin {
                Origin::Framework => continue,
                Origin::PrebuiltApp(pkg) => ServiceKind::PrebuiltApp(pkg.clone()),
                Origin::ThirdPartyApp(pkg) => ServiceKind::ThirdPartyApp(pkg.clone()),
            };
            // Resolve the exporting interface: own asBinder, or the
            // superclass chain's.
            let mut iface: Option<&str> = class.asbinder_interface.as_deref();
            let mut provider = class;
            let mut hops = 0;
            while iface.is_none() {
                match &provider.superclass {
                    Some(s) => {
                        let Some(sup) = names.find_class(s) else {
                            break;
                        };
                        provider = sup;
                        iface = provider.asbinder_interface.as_deref();
                        hops += 1;
                        if hops > 16 {
                            break; // defensive: malformed inheritance cycle
                        }
                    }
                    None => break,
                }
            }
            let Some(iface) = iface else { continue };
            // IPC methods are the provider's interface overrides
            // (subclasses inherit the defaults).
            for &mid in &provider.methods {
                let m = self.model.method(mid);
                if m.overrides_aidl.as_deref() == Some(iface) {
                    out.push(IpcMethod {
                        service: &class.name,
                        interface: Cow::Borrowed(iface),
                        method: &m.name,
                        java: Some(mid),
                        kind: kind.clone(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use jgre_corpus::spec::AospSpec;

    fn model() -> CodeModel {
        CodeModel::synthesize(&AospSpec::android_6_0_1())
    }

    #[test]
    fn covers_all_104_services() {
        let model = model();
        let all = IpcMethodExtractor::new(&model).extract();
        let services: std::collections::BTreeSet<_> = all
            .iter()
            .filter(|m| {
                matches!(
                    m.kind,
                    ServiceKind::SystemService | ServiceKind::NativeService
                )
            })
            .map(|m| m.service)
            .collect();
        assert_eq!(services.len(), 104);
        let native: std::collections::BTreeSet<_> = all
            .iter()
            .filter(|m| m.kind == ServiceKind::NativeService)
            .map(|m| m.service)
            .collect();
        assert_eq!(native.len(), 5);
    }

    #[test]
    fn only_native_interfaces_are_allocated() {
        let model = model();
        for m in IpcMethodExtractor::new(&model).extract() {
            if m.kind == ServiceKind::NativeService {
                assert_eq!(m.interface, format!("native:{}", m.service));
            } else {
                assert!(matches!(m.interface, Cow::Borrowed(_)), "{m:?}");
            }
        }
    }

    #[test]
    fn finds_the_named_vulnerable_interfaces() {
        let model = model();
        let all = IpcMethodExtractor::new(&model).extract();
        for (svc, m) in [
            ("clipboard", "addPrimaryClipChangedListener"),
            ("wifi", "acquireWifiLock"),
            ("notification", "enqueueToast"),
            ("audio", "startWatchingRoutes"),
            ("telephony.registry", "listenForSubscriber"),
        ] {
            assert!(
                all.iter().any(|i| i.service == svc && i.method == m),
                "missing {svc}.{m}"
            );
        }
    }

    #[test]
    fn pico_inherits_base_ipc_methods() {
        let model = model();
        let all = IpcMethodExtractor::new(&model).extract();
        let pico: Vec<_> = all
            .iter()
            .filter(|m| m.kind == ServiceKind::PrebuiltApp("com.svox.pico".into()))
            .collect();
        assert!(
            pico.iter().any(|m| m.method == "setCallback"),
            "PicoService must inherit ITextToSpeechService.setCallback, got {pico:?}"
        );
    }

    #[test]
    fn third_party_exports_found() {
        let model = model();
        let all = IpcMethodExtractor::new(&model).extract();
        let tp: std::collections::BTreeSet<_> = all
            .iter()
            .filter_map(|m| match &m.kind {
                ServiceKind::ThirdPartyApp(pkg) => Some(pkg.clone()),
                _ => None,
            })
            .collect();
        assert!(tp.contains("com.google.android.tts"));
        assert!(tp.contains("com.supernet.vpn"));
        assert!(tp.contains("com.snapmovie.app"));
    }
}
