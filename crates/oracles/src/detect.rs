//! The legacy step-3 detector (§III-C) — call-graph search, the
//! `readStrongBinder` special case, the four sift rules, and the
//! permission filter — classifying each IPC method directly from its
//! `MethodDef` facts. The production detector,
//! [`DataflowDetector`](jgre_analysis::DataflowDetector), re-derives the
//! same rows by abstract interpretation; on the pristine corpus the two
//! outputs are equal (`crates/analysis/tests/dataflow_agreement.rs`).

use std::collections::BTreeSet;

use jgre_analysis::{DetectorOutput, IpcMethod, JgrEntrySets, RiskyInterface, SiftReason};
use jgre_corpus::spec::ProtectionLevel;
use jgre_corpus::{CodeModel, MethodId, ParamUsage};

/// The legacy heuristic detector.
///
/// # Example
///
/// ```
/// use jgre_analysis::{IpcMethodExtractor, JgrEntryExtractor};
/// use jgre_corpus::{spec::AospSpec, CodeModel};
/// use jgre_oracles::VulnerableIpcDetector;
///
/// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
/// let ipc = IpcMethodExtractor::new(&model).extract();
/// let entries = JgrEntryExtractor::new(&model).extract();
/// let output = VulnerableIpcDetector::new(&model, &entries).detect(&ipc);
/// assert!(!output.risky.is_empty());
/// ```
#[derive(Debug)]
pub struct VulnerableIpcDetector<'m> {
    model: &'m CodeModel,
    entries: &'m JgrEntrySets,
}

impl<'m> VulnerableIpcDetector<'m> {
    /// Wraps the model and the step-2 output.
    pub fn new(model: &'m CodeModel, entries: &'m JgrEntrySets) -> Self {
        Self { model, entries }
    }

    /// Classifies every IPC method.
    pub fn detect<'a>(&self, ipc_methods: &'a [IpcMethod<'a>]) -> DetectorOutput<'a> {
        let mut risky = Vec::new();
        let mut sifted = Vec::new();
        for ipc in ipc_methods {
            match self.classify(ipc) {
                Classification::Risky(r) => risky.push(r),
                Classification::Sifted(reason) => sifted.push((ipc, reason)),
            }
        }
        DetectorOutput { risky, sifted }
    }

    fn classify<'a>(&self, ipc: &'a IpcMethod<'a>) -> Classification<'a> {
        let Some(root) = ipc.java else {
            // Native-service IPC entry points: their bodies live in the
            // native world; none of the exploitable JNI paths originate
            // there (the paper finds all 54 in Java services).
            return Classification::Sifted(SiftReason::NoJgrReach);
        };

        // Build the per-method call graph: direct + Handler-indirect.
        let (reached, via_handler) = self.reachable_from(root);
        let reached_entries: Vec<MethodId> = reached
            .iter()
            .copied()
            .filter(|m| self.entries.java_entries.contains(m))
            .collect();
        let def = self.model.method(root);

        // Permission filter first (PScout map): a signature-guarded method
        // is unreachable for third-party apps regardless of its body.
        if def
            .permission_checks
            .iter()
            .any(|p| p.level() == ProtectionLevel::Signature)
        {
            return Classification::Sifted(SiftReason::SignaturePermission);
        }

        let has_binder_params = !def.binder_params.is_empty();
        if reached_entries.is_empty() && !has_binder_params {
            return Classification::Sifted(SiftReason::NoJgrReach);
        }

        // Sift rule 1: only Thread.nativeCreate.
        let only_thread_create = !reached_entries.is_empty()
            && reached_entries
                .iter()
                .all(|m| Some(*m) == self.entries.thread_native_create);
        if only_thread_create && !has_binder_params {
            return Classification::Sifted(SiftReason::ThreadCreateOnly);
        }

        // The binder-parameter special case plus sift rules 2-4: a method
        // whose only JGR exposure is its parameters is judged by how the
        // parameters are used.
        let non_thread_entries: Vec<MethodId> = reached_entries
            .iter()
            .copied()
            .filter(|m| Some(*m) != self.entries.thread_native_create)
            .collect();
        if non_thread_entries.is_empty() && has_binder_params {
            let transient = def
                .binder_params
                .iter()
                .all(|u| matches!(u, ParamUsage::LocalOnly | ParamUsage::ReadOnlyMapKey));
            if transient {
                return Classification::Sifted(SiftReason::TransientUsage);
            }
            let replaced = def
                .binder_params
                .iter()
                .all(|u| matches!(u, ParamUsage::AssignedToMemberField | ParamUsage::LocalOnly));
            if replaced {
                return Classification::Sifted(SiftReason::ReplacedMember);
            }
        }

        Classification::Risky(RiskyInterface {
            ipc,
            reached_entries,
            via_binder_params: has_binder_params,
            via_handler_edge: via_handler,
        })
    }

    /// Transitive closure over direct calls and Handler posts; reports
    /// whether any Handler edge was needed to reach the closure.
    fn reachable_from(&self, root: MethodId) -> (BTreeSet<MethodId>, bool) {
        let mut seen = BTreeSet::new();
        let mut via_handler = false;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let def = self.model.method(id);
            stack.extend(def.calls.iter().copied());
            if !def.handler_posts.is_empty() {
                via_handler = true;
                stack.extend(def.handler_posts.iter().copied());
            }
        }
        seen.remove(&root);
        (seen, via_handler)
    }
}

enum Classification<'a> {
    Risky(RiskyInterface<'a>),
    Sifted(SiftReason),
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_analysis::{IpcMethodExtractor, JgrEntryExtractor, ServiceKind};
    use jgre_corpus::spec::AospSpec;

    /// The AOSP corpus, shared: the IPC surface borrows its names from
    /// it.
    fn aosp() -> &'static CodeModel {
        static MODEL: std::sync::OnceLock<CodeModel> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| CodeModel::synthesize(&AospSpec::android_6_0_1()))
    }

    /// The corpus and its step-1/step-2 outputs, which detector rows
    /// borrow from.
    struct Fixture {
        model: &'static CodeModel,
        ipc: Vec<IpcMethod<'static>>,
        entries: JgrEntrySets,
    }

    impl Fixture {
        fn new() -> Self {
            let model = aosp();
            let ipc = IpcMethodExtractor::new(model).extract();
            let entries = JgrEntryExtractor::new(model).extract();
            Self {
                model,
                ipc,
                entries,
            }
        }

        fn detect(&self) -> DetectorOutput<'_> {
            VulnerableIpcDetector::new(self.model, &self.entries).detect(&self.ipc)
        }
    }

    #[test]
    fn risky_counts_match_static_expectations() {
        let fixture = Fixture::new();
        let out = fixture.detect();
        // System services: 54 truly vulnerable + 3 soundly-bounded
        // (dynamic verification clears those) = 57.
        let system_risky = out
            .risky
            .iter()
            .filter(|r| r.ipc.kind == ServiceKind::SystemService)
            .count();
        assert_eq!(system_risky, 57, "54 vulnerable + 3 bounded");
        // Prebuilt apps contribute exactly 3.
        let prebuilt: Vec<_> = out
            .risky
            .iter()
            .filter(|r| matches!(r.ipc.kind, ServiceKind::PrebuiltApp(_)))
            .collect();
        assert_eq!(prebuilt.len(), 3);
        // Third-party apps contribute exactly 3 (Table V).
        let third = out
            .risky
            .iter()
            .filter(|r| matches!(r.ipc.kind, ServiceKind::ThirdPartyApp(_)))
            .count();
        assert_eq!(third, 3);
    }

    #[test]
    fn sift_rules_fire() {
        let fixture = Fixture::new();
        let out = fixture.detect();
        let reasons: std::collections::BTreeSet<_> = out.sifted.iter().map(|(_, r)| *r).collect();
        assert!(reasons.contains(&SiftReason::ThreadCreateOnly), "rule 1");
        assert!(reasons.contains(&SiftReason::TransientUsage), "rules 2-3");
        assert!(reasons.contains(&SiftReason::ReplacedMember), "rule 4");
        assert!(reasons.contains(&SiftReason::SignaturePermission));
        // The two signature-guarded retainers are sifted by permission.
        let sig: Vec<_> = out
            .sifted
            .iter()
            .filter(|(_, r)| *r == SiftReason::SignaturePermission)
            .map(|(m, _)| format!("{}.{}", m.service, m.method))
            .collect();
        assert!(sig.contains(&"device_policy.addPolicyStatusListener".to_owned()));
        assert!(sig.contains(&"batterystats.registerStatsListener".to_owned()));
    }

    #[test]
    fn handler_indirection_is_exercised() {
        let fixture = Fixture::new();
        let out = fixture.detect();
        assert!(
            out.risky.iter().any(|r| r.via_handler_edge),
            "some retention chains must go through Handler posts"
        );
        assert!(
            out.risky.iter().any(|r| !r.via_handler_edge),
            "and some must not"
        );
    }

    #[test]
    fn named_vulnerables_survive() {
        let fixture = Fixture::new();
        let out = fixture.detect();
        for (svc, m) in [
            ("wifi", "acquireWifiLock"),
            ("notification", "enqueueToast"),
            ("display", "registerCallback"), // bounded: statically risky
            ("clipboard", "addPrimaryClipChangedListener"),
        ] {
            assert!(
                out.risky
                    .iter()
                    .any(|r| r.ipc.service == svc && r.ipc.method == m),
                "{svc}.{m} must be statically risky"
            );
        }
    }
}
