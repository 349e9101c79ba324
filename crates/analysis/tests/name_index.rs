//! The extractors' per-run [`NameIndex`] answers every lookup exactly as
//! the model's linear scans do: `CodeModel::find_method` for each JNI
//! registration and `CodeModel::find_class` for each registered service
//! class, on the base corpus, on a 4× amplified corpus whose replica
//! classes have no `ClassDef`, and on a corpus with same-name overloads
//! and a duplicated class, where the lowest id must win.

use jgre_analysis::NameIndex;
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId};

#[path = "support/corpora.rs"]
mod corpora;
use corpora::amplify;

/// Every `(class, method)` pair a JNI registration names, plus the same
/// pair on each replica class (`__copy1` .. `__copy3`) and a miss.
fn method_queries(model: &CodeModel) -> Vec<(String, String)> {
    let mut queries = Vec::new();
    for reg in &model.jni_registrations {
        queries.push((reg.java_class.clone(), reg.java_method.clone()));
        for j in 1..4 {
            queries.push((
                format!("{}__copy{j}", reg.java_class),
                reg.java_method.clone(),
            ));
        }
        queries.push((
            reg.java_class.clone(),
            format!("{}Missing", reg.java_method),
        ));
    }
    queries
}

/// Every class a registered Java service names, every superclass, and a
/// miss.
fn class_queries(model: &CodeModel) -> Vec<String> {
    let mut queries: Vec<String> = model
        .methods
        .iter()
        .filter_map(|m| m.registers_service.as_ref().map(|(_, class)| class.clone()))
        .collect();
    queries.extend(model.classes.iter().filter_map(|c| c.superclass.clone()));
    queries.push("no.such.Class".to_owned());
    queries
}

/// Checks every query against the linear scans; returns how many
/// method lookups resolved.
fn assert_equivalent(model: &CodeModel, what: &str) -> usize {
    let names = NameIndex::new(model);
    let classes = class_queries(model);
    assert!(classes.len() > 100, "{what}: registered services queried");
    for class in &classes {
        assert_eq!(
            names.find_class(class).map(|c| c as *const _),
            model.find_class(class).map(|c| c as *const _),
            "{what}: find_class({class})"
        );
    }
    let methods = method_queries(model);
    let mut resolved = 0;
    for (class, method) in &methods {
        let expected = model.find_method(class, method);
        assert_eq!(
            names.find_method(class, method),
            expected,
            "{what}: find_method({class}, {method})"
        );
        resolved += usize::from(expected.is_some());
    }
    resolved
}

#[test]
fn base_corpus_lookups_match_the_linear_scans() {
    let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let resolved = assert_equivalent(&model, "base");
    assert!(resolved > 0, "some registrations have a Java method");
}

#[test]
fn replica_methods_without_a_class_def_resolve() {
    let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let model = amplify(&base, 4);
    assert_eq!(model.methods.len(), 4 * base.methods.len());
    assert_eq!(
        model.classes.len(),
        base.classes.len(),
        "no replica ClassDef"
    );
    let resolved = assert_equivalent(&model, "4x");
    assert_eq!(
        resolved,
        4 * assert_equivalent(&base, "base"),
        "every registration resolves on each replica too"
    );
}

#[test]
fn the_lowest_id_overload_and_the_first_class_win() {
    let mut model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let n = model.methods.len();
    // A same-name overload of every registered Java method, appended at
    // the end of the method table, so each pair has two matches.
    let registered: Vec<MethodId> = model
        .jni_registrations
        .iter()
        .filter_map(|r| model.find_method(&r.java_class, &r.java_method))
        .collect();
    assert!(!registered.is_empty());
    for (i, id) in registered.iter().enumerate() {
        let mut overload = model.method(*id).clone();
        overload.id = MethodId((n + i) as u32);
        model.methods.push(overload);
    }
    // A second class of the same name as every class, after all of them.
    let duplicates: Vec<_> = model
        .classes
        .iter()
        .map(|c| {
            let mut dup = c.clone();
            dup.methods.clear();
            dup
        })
        .collect();
    model.classes.extend(duplicates);
    assert_equivalent(&model, "overloads");
    let names = NameIndex::new(&model);
    for id in &registered {
        let def = model.method(*id);
        assert_eq!(
            names.find_method(&def.class, &def.name),
            Some(*id),
            "{}.{}: the lower id wins",
            def.class,
            def.name
        );
    }
}
