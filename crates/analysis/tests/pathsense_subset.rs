//! Soundness envelope for path sensitivity: reading branch predicates
//! may *refine* findings (relabel an unbounded leak as error-path-only,
//! prove a bounded cap) but must never add a leak the boolean-era
//! analysis missed, and must never drop a true positive. The proptest
//! replays random corpus mutations and checks the risky set under the
//! predicate reading is a subset of the path-insensitive one, with every
//! refinement explainable row by row.

use std::collections::BTreeSet;

use jgre_analysis::{
    AnalysisOptions, DataflowDetector, DataflowOutput, IpcMethod, IpcMethodExtractor,
    JgrEntryExtractor, LeakVerdict, LintReport,
};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId, ParamUsage};
use proptest::prelude::*;

type EditOp = (u8, usize, usize);

/// Same mutation vocabulary as the incremental-agreement harness, so
/// both differential properties roam the same corpus neighbourhood.
fn apply(model: &mut CodeModel, op: &EditOp, step: usize) {
    let n = model.methods.len();
    let (kind, a, b) = *op;
    match kind % 6 {
        0 => {
            let callee = MethodId((b % n) as u32);
            let def = &mut model.methods[a % n];
            if !def.calls.contains(&callee) {
                def.calls.push(callee);
            }
        }
        1 => {
            model.methods[a % n].calls.pop();
        }
        2 => {
            let callee = MethodId((b % n) as u32);
            if let Some(first) = model.methods[a % n].calls.first_mut() {
                *first = callee;
            }
        }
        3 => {
            let def = &mut model.methods[a % n];
            match def.binder_params.first_mut() {
                Some(usage) => {
                    *usage = if matches!(usage, ParamUsage::StoredInCollection) {
                        ParamUsage::LocalOnly
                    } else {
                        ParamUsage::StoredInCollection
                    };
                }
                None => def.binder_params.push(ParamUsage::LocalOnly),
            }
        }
        4 => {
            let def = &mut model.methods[a % n];
            def.name = format!("mut{step}_{}", def.name);
        }
        5 => {
            let shapes = [
                ParamUsage::ReleaseSkippedOnError,
                ParamUsage::PermissionGatedRelease,
                ParamUsage::NullCheckGatedStore,
            ];
            let usage = shapes[b % shapes.len()];
            let def = &mut model.methods[a % n];
            match def.binder_params.first_mut() {
                Some(slot) => *slot = usage,
                None => def.binder_params.push(usage),
            }
        }
        _ => unreachable!(),
    }
}

fn detect<'a>(
    model: &CodeModel,
    ipc: &'a [IpcMethod],
    options: &AnalysisOptions,
) -> DataflowOutput<'a> {
    let entries = JgrEntryExtractor::new(model).extract();
    DataflowDetector::new(model, &entries).detect_with(ipc, options)
}

fn risky_set<'a>(out: &DataflowOutput<'a>) -> BTreeSet<(&'a str, &'a str)> {
    out.detector
        .risky
        .iter()
        .map(|r| (r.ipc.service, r.ipc.method))
        .collect()
}

/// Checks the refinement relation on one corpus; returns a description
/// of the first violation.
fn check_refinement(model: &CodeModel) -> Result<(), String> {
    let ipc = IpcMethodExtractor::new(model).extract();
    let sensitive = detect(model, &ipc, &AnalysisOptions::default());
    let insensitive = detect(model, &ipc, &AnalysisOptions::default().path_insensitive());
    let s_risky = risky_set(&sensitive);
    let i_risky = risky_set(&insensitive);
    if let Some(extra) = s_risky.difference(&i_risky).next() {
        return Err(format!(
            "predicate reading invented a finding: {extra:?} risky only path-sensitively"
        ));
    }
    // Row-by-row: the only verdict the predicate reading may change is
    // UnboundedLeak -> ErrorPathLeak.
    for (s, i) in sensitive.verdicts.iter().zip(&insensitive.verdicts) {
        if (s.ipc.service, s.ipc.method) != (i.ipc.service, i.ipc.method) {
            return Err("verdict rows not aligned across modes".into());
        }
        let refined =
            s.verdict == LeakVerdict::ErrorPathLeak && i.verdict == LeakVerdict::UnboundedLeak;
        if s.verdict != i.verdict && !refined {
            return Err(format!(
                "{}.{}: illegal verdict change {:?} -> {:?}",
                s.ipc.service, s.ipc.method, i.verdict, s.verdict
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Path-sensitive findings are a subset of path-insensitive ones
    /// under arbitrary corpus mutations; every divergence is the
    /// documented unbounded -> error-path refinement.
    #[test]
    fn sensitive_findings_are_a_refinement_of_insensitive(
        ops in proptest::collection::vec((0u8..6, 0usize..4096, 0usize..4096), 1..8)
    ) {
        let mut model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        for (step, op) in ops.iter().enumerate() {
            apply(&mut model, op, step);
        }
        if let Err(violation) = check_refinement(&model) {
            prop_assert!(false, "after {ops:?}: {violation}");
        }
    }
}

/// Against the labelled corpora, neither mode misses a true leak: the
/// recall guarantee the subset property alone cannot give.
#[test]
fn neither_mode_drops_a_true_positive() {
    let spec = AospSpec::android_6_0_1();
    for model in [
        CodeModel::synthesize(&spec),
        CodeModel::synthesize_with_error_paths(&spec),
    ] {
        for options in [
            AnalysisOptions::default(),
            AnalysisOptions::default().path_insensitive(),
        ] {
            let report = LintReport::generate_with(&model, &spec, &options);
            assert_eq!(
                report.accuracy.false_negatives,
                0,
                "missed leaks with {} methods, path_sensitive={}",
                model.methods.len(),
                options.path_sensitive
            );
        }
    }
}
