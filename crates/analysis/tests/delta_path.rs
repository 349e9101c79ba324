//! Pins the Tier A delta path on the 4× amplified corpus the `lint`
//! benchmark edits: after a one-method edit on a replica leaf, only the
//! dirty cone is processed, the work counters equal the cone's alone,
//! every `SolverStats` field equals what an oracle derives from the two
//! corpora without the cache, and the rewritten cache file is
//! byte-identical to the one a cold cached run of the edited corpus
//! writes. A file whose index is refused is a full recompute. An edit
//! that keeps its method's summary serves its callers from Tier A, and
//! a grown corpus, whose index covers the shared id prefix, keeps apart
//! the summaries of overloads that share a `(class, name)`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use jgre_analysis::leakcheck::LeakAnalysis;
use jgre_analysis::{
    cache, condense_call_graph, intra_solver_cost, method_fact_fingerprints, AnalysisOptions, Cfg,
    LeakChecker, RejectReason, SolverStats, CACHE_FILE,
};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodDef, MethodId, ParamUsage};

#[path = "support/corpora.rs"]
mod corpora;
use corpora::amplify;

/// The edited method plus every transitive caller, found by walking
/// call edges backwards — an oracle independent of the engine's.
fn caller_cone(model: &CodeModel, edited: MethodId) -> BTreeSet<MethodId> {
    let mut cone = BTreeSet::from([edited]);
    loop {
        let before = cone.len();
        for def in &model.methods {
            if def
                .calls
                .iter()
                .chain(def.handler_posts.iter())
                .any(|callee| cone.contains(callee))
            {
                cone.insert(def.id);
            }
        }
        if cone.len() == before {
            return cone;
        }
    }
}

/// `(cfg_blocks, solver_iterations)` of the cone's methods analysed on
/// their own: a CFG depends only on its method's own facts.
fn cone_work(model: &CodeModel, cone: &BTreeSet<MethodId>) -> (usize, u64) {
    let mut alone = model.clone();
    alone.methods = cone
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let mut def = model.method(*id).clone();
            def.id = MethodId(i as u32);
            def
        })
        .collect();
    let mut cfg = Cfg::default();
    let blocks = alone
        .methods
        .iter()
        .map(|def| {
            cfg.synthesize_from(def);
            cfg.blocks.len()
        })
        .sum();
    (blocks, intra_solver_cost(&alone))
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jgre-delta-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cached_run(model: &CodeModel, dir: &Path) -> LeakAnalysis {
    LeakChecker::new(model).analyze_with(&AnalysisOptions::with_cache_dir(dir))
}

/// The statistics a cached re-lint of `after` over `before`'s file must
/// report, derived without the cache. An SCC of `after` hits exactly
/// when `before` had an SCC of the same members, each member's facts are
/// unchanged, and so is the summary of each of their external callees:
/// the inputs to the fold are equal under the same numbering. Hits skip
/// synthesis, so the work counters are the missed SCCs' methods' alone.
fn expected_stats(before: &CodeModel, after: &CodeModel) -> SolverStats {
    let facts = |m: &CodeModel| method_fact_fingerprints(m, &vec![false; m.methods.len()]);
    let (old_facts, new_facts) = (facts(before), facts(after));
    let old_summaries = LeakChecker::new(before).analyze().summaries;
    let new_summaries = LeakChecker::new(after).analyze().summaries;
    let old_cond = condense_call_graph(before);
    let old_sccs: BTreeSet<&[MethodId]> = old_cond.sccs().collect();
    let cond = condense_call_graph(after);
    let unchanged = |m: &MethodId| old_facts.get(m.0 as usize) == Some(&new_facts[m.0 as usize]);
    let same_summary =
        |c: &MethodId| old_summaries.get(c.0 as usize) == Some(&new_summaries[c.0 as usize]);
    let mut missed = BTreeSet::new();
    let mut misses = 0;
    for scc in cond.sccs() {
        let hit = old_sccs.contains(scc)
            && scc.iter().all(|m| {
                let def = after.method(*m);
                unchanged(m)
                    && def
                        .calls
                        .iter()
                        .chain(def.handler_posts.iter())
                        .filter(|callee| !scc.contains(callee))
                        .all(same_summary)
            });
        if !hit {
            misses += 1;
            missed.extend(scc.iter().copied());
        }
    }
    let (cfg_blocks, solver_iterations) = cone_work(after, &missed);
    SolverStats {
        methods: after.methods.len(),
        cfg_blocks,
        sccs: cond.len(),
        solver_iterations,
        cache_hits: (cond.len() - misses) as u64,
        cache_misses: misses as u64,
        cache_invalidated: 0,
    }
}

/// Re-lints `after` through the cache file of `before` three ways — the
/// delta path, a full recompute behind a refused index, and a cold
/// cached run in a fresh directory — checks what every delta re-lint
/// must satisfy, and returns the delta run's statistics.
fn relint(before: &CodeModel, after: &CodeModel, tag: &str) -> SolverStats {
    let n = after.methods.len();
    let pristine_dir = temp_cache_dir(&format!("{tag}-pristine"));
    cached_run(before, &pristine_dir);
    let pristine = fs::read(pristine_dir.join(CACHE_FILE)).unwrap();

    // The delta path: the pristine file, then the edit.
    let delta_dir = temp_cache_dir(&format!("{tag}-delta"));
    fs::write(delta_dir.join(CACHE_FILE), &pristine).unwrap();
    let delta = cached_run(after, &delta_dir);

    // A full recompute: the same table without its index, which the
    // loader refuses.
    let full_dir = temp_cache_dir(&format!("{tag}-full"));
    let loaded = cache::load(&pristine_dir.join(CACHE_FILE), 0, n);
    let table = cache::encode_tier_a(loaded.tier_a.as_deref().unwrap());
    cache::store(
        &full_dir.join(CACHE_FILE),
        0,
        loaded.scc_count,
        &table,
        &loaded.tier_b,
    )
    .unwrap();
    assert_eq!(
        cache::load(&full_dir.join(CACHE_FILE), 0, n).reject,
        Some(RejectReason::MalformedPayload)
    );
    let full = cached_run(after, &full_dir);

    // A cold cached run of the edited corpus in a fresh directory.
    let cold_dir = temp_cache_dir(&format!("{tag}-cold"));
    let cold = cached_run(after, &cold_dir);

    let uncached = LeakChecker::new(after).analyze();
    assert_eq!(delta.summaries, uncached.summaries, "{tag}");
    assert_eq!(full.summaries, uncached.summaries, "{tag}");

    let stats = delta.stats;
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.sccs as u64,
        "{tag}"
    );
    assert_eq!(stats.sccs, cold.stats.sccs, "{tag}");
    assert_eq!(stats, expected_stats(before, after), "{tag}");
    // The refused index is the one rejection the full recompute counts;
    // it does the work of an uncached run.
    assert_eq!(
        full.stats,
        SolverStats {
            cache_invalidated: 1,
            ..uncached.stats
        },
        "{tag}"
    );

    let cold_bytes = fs::read(cold_dir.join(CACHE_FILE)).unwrap();
    assert!(
        fs::read(delta_dir.join(CACHE_FILE)).unwrap() == cold_bytes,
        "{tag}: the delta path's file differs from a cold cached run's"
    );
    assert!(
        fs::read(full_dir.join(CACHE_FILE)).unwrap() == cold_bytes,
        "{tag}: the full path's file differs from a cold cached run's"
    );
    for dir in [pristine_dir, delta_dir, full_dir, cold_dir] {
        fs::remove_dir_all(dir).ok();
    }
    stats
}

/// Flips a method's first binder parameter between local-only and
/// stored-in-collection.
fn flip_first_param(model: &mut CodeModel, id: MethodId) {
    let usage = &mut model.methods[id.0 as usize].binder_params[0];
    *usage = if *usage == ParamUsage::LocalOnly {
        ParamUsage::StoredInCollection
    } else {
        ParamUsage::LocalOnly
    };
}

#[test]
fn one_method_edit_on_a_replica_leaf_pins_the_delta_path() {
    let model = amplify(&CodeModel::synthesize(&AospSpec::android_6_0_1()), 4);
    let target = model
        .methods
        .iter()
        .find(|d| {
            d.class.ends_with("__copy1")
                && !d.binder_params.is_empty()
                && caller_cone(&model, d.id).len() == 1
        })
        .expect("the amplified corpus has a replica leaf with binder params")
        .id;
    let mut edited = model.clone();
    flip_first_param(&mut edited, target);
    let cone = caller_cone(&edited, target);

    let stats = relint(&model, &edited, "leaf");
    let (blocks, iterations) = cone_work(&edited, &cone);
    assert_eq!(stats.cache_misses, cone.len() as u64, "{stats:?}");
    assert_eq!(stats.cfg_blocks, blocks, "{stats:?}");
    assert_eq!(stats.solver_iterations, iterations, "{stats:?}");
}

#[test]
fn call_cycles_stay_whole_across_delta_relints() {
    let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let mut leaves = base.methods.iter().filter(|d| {
        !d.binder_params.is_empty() && d.calls.is_empty() && d.handler_posts.is_empty()
    });
    let (a, b, other) = (
        leaves.next().unwrap().id,
        leaves.next().unwrap().id,
        leaves.next().unwrap().id,
    );
    let mut cycle = base.clone();
    cycle.methods[a.0 as usize].calls.push(b);
    cycle.methods[b.0 as usize].calls.push(a);

    // An edit that closes the cycle merges two SCCs into one.
    relint(&base, &cycle, "merge");
    // An edit outside it keeps the two-method SCC clean: one SCC, one
    // hit.
    let mut elsewhere = cycle.clone();
    flip_first_param(&mut elsewhere, other);
    let stats = relint(&cycle, &elsewhere, "elsewhere");
    assert_eq!(stats.sccs, base.methods.len() - 1);
    // An edit inside it makes the whole SCC dirty.
    let mut inside = cycle.clone();
    flip_first_param(&mut inside, a);
    relint(&cycle, &inside, "inside");
    // An edit that breaks the cycle splits it again.
    let mut split = cycle.clone();
    split.methods[b.0 as usize].calls.clear();
    relint(&cycle, &split, "split");
}

/// `model` with methods `a` and `b` trading ids, every call edge
/// following them.
fn swap_ids(model: &CodeModel, a: MethodId, b: MethodId) -> CodeModel {
    let mut swapped = model.clone();
    swapped.methods.swap(a.0 as usize, b.0 as usize);
    let renumber = |id: MethodId| match id {
        id if id == a => b,
        id if id == b => a,
        id => id,
    };
    for (i, def) in swapped.methods.iter_mut().enumerate() {
        def.id = MethodId(i as u32);
        for callee in def.calls.iter_mut().chain(def.handler_posts.iter_mut()) {
            *callee = renumber(*callee);
        }
    }
    swapped
}

#[test]
fn renumbering_recomputes_the_sccs_it_reorders() {
    let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let analysis = LeakChecker::new(&base).analyze();
    // A summary with sites from two origins: swapping their ids reverses
    // the sites' order, so no row stored under the old numbering may
    // serve it. Keys name members and callees by id, so every SCC whose
    // ids moved misses and is computed again.
    let (a, b) = analysis
        .summaries
        .iter()
        .find_map(|s| {
            let first = s.sites.first()?.method;
            let last = s.sites.last()?.method;
            (first != last).then_some((first, last))
        })
        .expect("some summary has sites from two methods");
    relint(&base, &swap_ids(&base, a, b), "renumber");
}

#[test]
fn callers_of_an_edit_that_keeps_its_summary_are_served_from_tier_a() {
    let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let summaries = LeakChecker::new(&base).analyze().summaries;
    // Renaming a method changes its facts but, away from the JNI-wrapper
    // names, not its summary: only its own SCC is recomputed, and every
    // caller SCC in its cone cuts off early on its unchanged key.
    let (renamed, cone) = base
        .methods
        .iter()
        .filter(|d| !summaries[d.id.0 as usize].sites.is_empty())
        .find_map(|d| {
            let cone = caller_cone(&base, d.id);
            if cone.len() <= 2 || calls_into(&base, d.id, &cone) {
                return None;
            }
            let mut renamed = base.clone();
            renamed.methods[d.id.0 as usize].name.push_str("Renamed");
            let kept = LeakChecker::new(&renamed).analyze().summaries == summaries;
            kept.then_some((renamed, cone))
        })
        .expect("some retaining method has callers and keeps its summary when renamed");
    let stats = relint(&base, &renamed, "rename");
    assert_eq!(stats.cache_misses, 1, "{stats:?}");
    assert_eq!(
        stats.cache_hits as usize,
        stats.sccs - 1,
        "{} callers",
        cone.len() - 1
    );
}

/// Whether `id` calls back into `cone` other than itself — a caller in
/// its own SCC, which the rename would put in the recomputed SCC.
fn calls_into(model: &CodeModel, id: MethodId, cone: &BTreeSet<MethodId>) -> bool {
    let def = model.method(id);
    def.calls
        .iter()
        .chain(def.handler_posts.iter())
        .any(|callee| *callee != id && cone.contains(callee))
}

/// A bare method: no body beyond its binder parameters and call edges.
fn bare(
    id: u32,
    class: &str,
    name: &str,
    binder_params: Vec<ParamUsage>,
    calls: &[u32],
) -> MethodDef {
    MethodDef {
        id: MethodId(id),
        class: class.to_owned(),
        name: name.to_owned(),
        overrides_aidl: None,
        calls: calls.iter().copied().map(MethodId).collect(),
        handler_posts: Vec::new(),
        registers_service: None,
        binder_params,
        permission_checks: Vec::new(),
    }
}

#[test]
fn overloads_keep_their_own_summaries_when_the_corpus_grows() {
    // Two overloads share `com.example.Over.over` (ids 1 and 2); only id
    // 1 retains its binder, and id 3 calls it. A grown corpus applies
    // the Tier A index to the ids both corpora share, where a row must
    // name the allocating overload by id, not by name.
    let over = "com.example.Over";
    let mut model = CodeModel {
        classes: Vec::new(),
        methods: vec![
            bare(0, "com.example.Other", "leaf", Vec::new(), &[]),
            bare(1, over, "over", vec![ParamUsage::StoredInCollection], &[]),
            bare(2, over, "over", vec![ParamUsage::LocalOnly], &[]),
            bare(3, "com.example.Caller", "call", Vec::new(), &[1]),
        ],
        native_functions: Vec::new(),
        jni_registrations: Vec::new(),
    };
    let dir = temp_cache_dir("overloads");
    cached_run(&model, &dir);
    let small = model.clone();
    model
        .methods
        .push(bare(4, "com.example.Extra", "extra", Vec::new(), &[]));
    let grown = cached_run(&model, &dir);

    let uncached = LeakChecker::new(&model).analyze();
    let origins = |a: &LeakAnalysis| -> Vec<MethodId> {
        a.summaries[3].sites.iter().map(|s| s.method).collect()
    };
    assert_eq!(origins(&uncached), vec![MethodId(1)]);
    assert_eq!(origins(&grown), vec![MethodId(1)], "cached caller summary");
    assert_eq!(grown.summaries, uncached.summaries);
    // Every SCC of the old corpus kept its key; only the appended method
    // is computed.
    let stats = grown.stats;
    assert_eq!(
        (
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_invalidated
        ),
        (4, 1, 0),
        "{stats:?}"
    );
    let cold_dir = temp_cache_dir("overloads-cold");
    cached_run(&model, &cold_dir);
    assert!(
        fs::read(dir.join(CACHE_FILE)).unwrap() == fs::read(cold_dir.join(CACHE_FILE)).unwrap(),
        "the grown corpus's file differs from a cold cached run's"
    );
    for dir in [dir, cold_dir] {
        fs::remove_dir_all(dir).ok();
    }
    // Shrunk back, the corpus is the shared prefix: nothing is computed.
    let stats = relint(&model, &small, "shrink");
    assert_eq!(
        (
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_invalidated
        ),
        (4, 0, 0),
        "{stats:?}"
    );
}
