//! Agreement between the dataflow leak-check detector and the legacy
//! heuristic detector.
//!
//! On the pristine corpus the two must coincide exactly. On randomly
//! perturbed corpora any divergence must be Leak-side only: the dataflow
//! detector may flag a method the heuristics sift, never the reverse —
//! sifting is a proof of safety, and the dataflow pass is allowed to be
//! conservative but not unsound.

use std::collections::BTreeSet;

use jgre_analysis::{DataflowDetector, IpcMethodExtractor, JgrEntryExtractor};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodDef, MethodId, ParamUsage};
use jgre_oracles::VulnerableIpcDetector;
use proptest::prelude::*;

/// `(service, method)` keys of the risky interfaces a detector reports.
type RiskySet = BTreeSet<(String, String)>;

fn risky_sets(model: &CodeModel) -> (RiskySet, RiskySet) {
    let ipc = IpcMethodExtractor::new(model).extract();
    let entries = JgrEntryExtractor::new(model).extract();
    let legacy = VulnerableIpcDetector::new(model, &entries).detect(&ipc);
    let flow = DataflowDetector::new(model, &entries).detect(&ipc);
    let key =
        |r: &jgre_analysis::RiskyInterface| (r.ipc.service.to_owned(), r.ipc.method.to_owned());
    (
        legacy.risky.iter().map(key).collect(),
        flow.detector.risky.iter().map(key).collect(),
    )
}

/// Service classes that expose an AIDL surface, for injection targets.
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

/// Injects an IPC method with arbitrary parameter usages and optional
/// calls into the retaining plumbing.
fn inject_method(
    model: &mut CodeModel,
    class: &str,
    name: String,
    params: Vec<ParamUsage>,
    call_register: bool,
    post_thread: bool,
) {
    let id = MethodId(model.methods.len() as u32);
    let mut calls = Vec::new();
    let mut handler_posts = Vec::new();
    if call_register {
        if let Some(rcl) = model.find_method("android.os.RemoteCallbackList", "register") {
            calls.push(rcl);
        }
    }
    if post_thread {
        if let Some(thread) = model.find_method("java.lang.Thread", "start") {
            handler_posts.push(thread);
        }
    }
    let def = MethodDef {
        id,
        class: class.to_owned(),
        name,
        overrides_aidl: model
            .methods
            .iter()
            .find(|m| m.class == class && m.overrides_aidl.is_some())
            .and_then(|m| m.overrides_aidl.clone()),
        calls,
        handler_posts,
        registers_service: None,
        binder_params: params,
        permission_checks: Vec::new(),
    };
    model.methods.push(def);
    if let Some(c) = model.classes.iter_mut().find(|c| c.name == class) {
        c.methods.push(id);
    }
}

fn usage_from(code: u8) -> Option<ParamUsage> {
    match code % 6 {
        0 => None,
        1 => Some(ParamUsage::LocalOnly),
        2 => Some(ParamUsage::ReadOnlyMapKey),
        3 => Some(ParamUsage::AssignedToMemberField),
        4 => Some(ParamUsage::StoredInCollection),
        _ => Some(ParamUsage::StoredInCollectionBounded),
    }
}

#[test]
fn pristine_corpus_agrees_exactly() {
    let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let (legacy, flow) = risky_sets(&model);
    assert_eq!(legacy, flow);
}

#[test]
fn agrees_exactly_with_the_legacy_oracle() {
    let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let ipc = IpcMethodExtractor::new(&model).extract();
    let entries = JgrEntryExtractor::new(&model).extract();
    let dataflow = DataflowDetector::new(&model, &entries).detect(&ipc);
    let legacy = VulnerableIpcDetector::new(&model, &entries).detect(&ipc);
    let key =
        |r: &jgre_analysis::RiskyInterface| (r.ipc.service.to_owned(), r.ipc.method.to_owned());
    let ours: RiskySet = dataflow.detector.risky.iter().map(key).collect();
    let theirs: RiskySet = legacy.risky.iter().map(key).collect();
    assert_eq!(ours, theirs, "detectors diverge");
    // Stronger: the full risky rows (provenance included) coincide.
    assert_eq!(dataflow.detector, legacy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On arbitrarily perturbed corpora the heuristic risky set is a
    /// subset of the dataflow risky set: the dataflow pass never releases
    /// a method the sift heuristics consider risky.
    #[test]
    fn divergence_is_leak_side_only(
        injections in proptest::collection::vec(
            (0usize..32, proptest::collection::vec(0u8..6, 0..3), any::<bool>(), any::<bool>()),
            1..16,
        )
    ) {
        let mut model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let classes = service_classes(&model);
        for (i, (class_pick, usages, call_register, post_thread)) in
            injections.iter().enumerate()
        {
            let class = classes[class_pick % classes.len()].clone();
            let params: Vec<ParamUsage> =
                usages.iter().filter_map(|u| usage_from(*u)).collect();
            inject_method(
                &mut model,
                &class,
                format!("injectedMix{i}"),
                params,
                *call_register,
                *post_thread,
            );
        }
        let (legacy, flow) = risky_sets(&model);
        let sifted_but_risky: Vec<_> = legacy.difference(&flow).collect();
        prop_assert!(
            sifted_but_risky.is_empty(),
            "dataflow released methods the heuristics flag: {sifted_but_risky:?}"
        );
    }

    /// Per-method verdicts and sift reasons agree on perturbed corpora
    /// wherever both classify: a method sifted by both detectors gets the
    /// same reason from each.
    #[test]
    fn sift_reasons_agree_where_both_sift(
        injections in proptest::collection::vec((0usize..32, 0u8..6), 1..12)
    ) {
        let mut model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let classes = service_classes(&model);
        for (i, (class_pick, usage)) in injections.iter().enumerate() {
            let class = classes[class_pick % classes.len()].clone();
            inject_method(
                &mut model,
                &class,
                format!("injectedUsage{i}"),
                usage_from(*usage).into_iter().collect(),
                false,
                false,
            );
        }
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let legacy = VulnerableIpcDetector::new(&model, &entries).detect(&ipc);
        let flow = DataflowDetector::new(&model, &entries).detect(&ipc);
        let legacy_sifted: std::collections::BTreeMap<_, _> = legacy
            .sifted
            .iter()
            .map(|(m, r)| ((m.service, m.method), *r))
            .collect();
        for (m, reason) in &flow.detector.sifted {
            let key = (m.service, m.method);
            if let Some(legacy_reason) = legacy_sifted.get(&key) {
                prop_assert_eq!(
                    reason, legacy_reason,
                    "sift reason mismatch for {:?}", key
                );
            }
        }
    }
}
