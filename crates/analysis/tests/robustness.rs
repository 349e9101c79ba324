//! Robustness of the static pipeline: its findings must be a function of
//! the vulnerability-relevant structure only — injecting arbitrary
//! amounts of innocent code into the corpus never changes the risky set.

use jgre_analysis::{IpcMethodExtractor, JgrEntryExtractor, Pipeline};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodDef, MethodId, ParamUsage};
use jgre_oracles::VulnerableIpcDetector;
use proptest::prelude::*;

fn risky_set(model: &CodeModel) -> Vec<(String, String)> {
    let ipc = IpcMethodExtractor::new(model).extract();
    let entries = JgrEntryExtractor::new(model).extract();
    let out = VulnerableIpcDetector::new(model, &entries).detect(&ipc);
    let mut set: Vec<(String, String)> = out
        .risky
        .iter()
        .map(|r| (r.ipc.service.to_owned(), r.ipc.method.to_owned()))
        .collect();
    set.sort();
    set
}

/// Appends a new method to an existing registered service class.
/// Registered service classes that actually expose an AIDL surface (the
/// SystemServer class itself registers services but implements none).
fn service_classes(model: &CodeModel) -> Vec<String> {
    model
        .classes
        .iter()
        .filter(|c| {
            c.name.starts_with("com.android.server.")
                && c.methods
                    .iter()
                    .any(|&m| model.method(m).overrides_aidl.is_some())
        })
        .map(|c| c.name.clone())
        .take(32)
        .collect()
}

fn inject_method(model: &mut CodeModel, class: &str, name: String, usage: Option<ParamUsage>) {
    let id = MethodId(model.methods.len() as u32);
    let def = MethodDef {
        id,
        class: class.to_owned(),
        name,
        // Injected methods override the class's AIDL interface so the
        // extractor picks them up as IPC surface.
        overrides_aidl: model
            .methods
            .iter()
            .find(|m| m.class == class && m.overrides_aidl.is_some())
            .and_then(|m| m.overrides_aidl.clone()),
        calls: Vec::new(),
        handler_posts: Vec::new(),
        registers_service: None,
        binder_params: usage.into_iter().collect(),
        permission_checks: Vec::new(),
    };
    model.methods.push(def);
    if let Some(c) = model.classes.iter_mut().find(|c| c.name == class) {
        c.methods.push(id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Injecting innocent IPC methods (no binder params, or transient /
    /// replace-single usage) anywhere leaves the risky set untouched.
    #[test]
    fn innocent_noise_never_changes_findings(
        injections in proptest::collection::vec((0usize..32, 0u8..3), 1..24)
    ) {
        let spec = AospSpec::android_6_0_1();
        let base_model = CodeModel::synthesize(&spec);
        let baseline = risky_set(&base_model);

        let mut noisy = base_model.clone();
        let classes = service_classes(&noisy);
        for (i, (class_pick, kind)) in injections.iter().enumerate() {
            let class = &classes[class_pick % classes.len()];
            let usage = match kind {
                0 => None,
                1 => Some(ParamUsage::LocalOnly),
                _ => Some(ParamUsage::AssignedToMemberField),
            };
            inject_method(&mut noisy, class, format!("injectedNoise{i}"), usage);
        }
        prop_assert_eq!(risky_set(&noisy), baseline);
    }

    /// Injecting a *retaining* method (StoredInCollection) grows the risky
    /// set by exactly that method — nothing else is perturbed.
    #[test]
    fn injected_leak_is_found_and_only_it(class_pick in 0usize..32) {
        let spec = AospSpec::android_6_0_1();
        let mut model = CodeModel::synthesize(&spec);
        let baseline = risky_set(&model);
        let classes = service_classes(&model);
        let class = &classes[class_pick % classes.len()];
        inject_method(
            &mut model,
            class,
            "injectedLeak".to_owned(),
            Some(ParamUsage::StoredInCollection),
        );
        let found = risky_set(&model);
        prop_assert_eq!(found.len(), baseline.len() + 1);
        prop_assert!(found.iter().any(|(_, m)| m == "injectedLeak"));
        for row in &baseline {
            prop_assert!(found.contains(row), "lost a baseline finding: {row:?}");
        }
    }
}

#[test]
fn static_report_is_deterministic_across_runs() {
    let spec = AospSpec::android_6_0_1();
    let a = Pipeline::new(CodeModel::synthesize(&spec)).run_static();
    let b = Pipeline::new(CodeModel::synthesize(&spec)).run_static();
    assert_eq!(a, b);
}
