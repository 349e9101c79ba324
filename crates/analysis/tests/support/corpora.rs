//! Corpora shared by the analysis test suites: the lint benchmark's
//! amplified corpus, and random edits, where one `(kind, a, b)` triple
//! changes one method's facts, so a vector of them is a random walk
//! through method facts from the AOSP corpus. Each suite uses a part.

#![allow(dead_code)]

use jgre_corpus::{CodeModel, MethodId, ParamUsage};

/// The AOSP corpus replicated `copies` times with suffixed class names
/// and offset call ids, as the lint benchmark amplifies it. Replicas get
/// no `ClassDef`.
pub fn amplify(base: &CodeModel, copies: usize) -> CodeModel {
    let n = base.methods.len();
    let mut model = base.clone();
    for j in 1..copies {
        for def in &base.methods {
            let mut copy = def.clone();
            copy.id = MethodId((def.id.0 as usize + j * n) as u32);
            copy.class = format!("{}__copy{j}", def.class);
            for callee in copy.calls.iter_mut().chain(copy.handler_posts.iter_mut()) {
                *callee = MethodId((callee.0 as usize + j * n) as u32);
            }
            model.methods.push(copy);
        }
    }
    model
}

/// One corpus edit: `(kind, a, b)` with the operand indices taken modulo
/// whatever they select. Kinds: 0 add call edge, 1 remove last call
/// edge, 2 retarget first call edge, 3 toggle the first binder param
/// between released and retained, 4 rename the method, 5 cycle the first
/// binder param through the path-sensitive error-path usages, 6 append
/// an overload of a method (same class and name) and let another method
/// call it.
pub type EditOp = (u8, usize, usize);

pub fn apply(model: &mut CodeModel, op: &EditOp, step: usize) {
    let n = model.methods.len();
    let (kind, a, b) = *op;
    match kind % 7 {
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
            // Take the name of another method of the same class when
            // there is one: overloads share a `(class, name)`, so the
            // cache must not key on it.
            let def = &model.methods[a % n];
            let peers: Vec<&str> = model
                .methods
                .iter()
                .filter(|d| d.class == def.class && d.name != def.name)
                .map(|d| d.name.as_str())
                .collect();
            let name = match peers.get(b % peers.len().max(1)) {
                Some(peer) => (*peer).to_owned(),
                None => format!("mut{step}_{}", def.name),
            };
            model.methods[a % n].name = name;
        }
        5 => {
            // Exercise the predicate lattice in the cache: branch-labeled
            // bodies whose summaries carry non-empty PredSets.
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
        6 => {
            // A new method id: the Tier A index covers the ids both
            // corpora share, and the new method is computed.
            let mut overload = model.methods[a % n].clone();
            overload.id = MethodId(n as u32);
            overload.overrides_aidl = None;
            overload.registers_service = None;
            if let Some(class) = model.classes.iter_mut().find(|c| c.name == overload.class) {
                class.methods.push(overload.id);
            }
            model.methods.push(overload);
            model.methods[b % n].calls.push(MethodId(n as u32));
        }
        _ => unreachable!(),
    }
}
