//! Pins the Tier A delta path on the 4× amplified corpus the `lint`
//! benchmark edits: after a one-method edit on a replica leaf, only the
//! dirty cone is processed, the work counters equal the cone's alone,
//! every `SolverStats` field equals what the full Tier B path reports,
//! and the rewritten cache file is byte-identical to the one a cold
//! cached run of the edited corpus writes. A grown corpus, which takes
//! the full Tier B path, keeps apart the summaries of overloads that
//! share a `(class, name)`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use jgre_analysis::leakcheck::LeakAnalysis;
use jgre_analysis::{
    cache, intra_solver_cost, AnalysisOptions, Cfg, LeakChecker, RejectReason, SolverStats,
    CACHE_FILE,
};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodDef, MethodId, ParamUsage};

/// Replicates every method `copies` times with suffixed class names and
/// offset call ids (the benchmark's corpus).
fn amplify(base: &CodeModel, copies: usize) -> CodeModel {
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

/// Re-lints `after` through the cache file of `before` three ways — the
/// delta path, the full Tier B path, and a cold cached run in a fresh
/// directory — checks what every delta re-lint must satisfy, and
/// returns the delta run's statistics.
fn relint(before: &CodeModel, after: &CodeModel, tag: &str) -> SolverStats {
    let n = after.methods.len();
    let pristine_dir = temp_cache_dir(&format!("{tag}-pristine"));
    cached_run(before, &pristine_dir);
    let pristine = fs::read(pristine_dir.join(CACHE_FILE)).unwrap();

    // The delta path: the pristine file, then the edit.
    let delta_dir = temp_cache_dir(&format!("{tag}-delta"));
    fs::write(delta_dir.join(CACHE_FILE), &pristine).unwrap();
    let delta = cached_run(after, &delta_dir);

    // The full Tier B path: the same records behind a Tier A table
    // without its index, which the loader refuses.
    let full_dir = temp_cache_dir(&format!("{tag}-full"));
    let loaded = cache::load(&pristine_dir.join(CACHE_FILE), 0, n);
    assert!(loaded.tier_b_verified && loaded.tier_b.len() == loaded.scc_count as usize);
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
    // The refused index is the one rejection the full path counts.
    assert_eq!(full.stats.cache_invalidated, 1, "{tag}");
    assert_eq!(
        stats,
        SolverStats {
            cache_invalidated: 0,
            ..full.stats
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
    // An edit outside it keeps the two-method SCC clean: one record, one
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
fn renumbering_rewrites_the_records_it_reorders() {
    let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let analysis = LeakChecker::new(&base).analyze();
    // A summary with sites from two origins: swapping their ids reverses
    // the sites' order, so no record stored under the old numbering may
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
    // 1 retains its binder, and id 3 calls it. A grown corpus has no
    // usable Tier A index, so every SCC goes through Tier B — where a
    // record must name the allocating overload by id, not by name.
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
    model
        .methods
        .push(bare(4, "com.example.Extra", "extra", Vec::new(), &[]));
    let relint = cached_run(&model, &dir);

    let uncached = LeakChecker::new(&model).analyze();
    let origins = |a: &LeakAnalysis| -> Vec<MethodId> {
        a.summaries[3].sites.iter().map(|s| s.method).collect()
    };
    assert_eq!(origins(&uncached), vec![MethodId(1)]);
    assert_eq!(origins(&relint), vec![MethodId(1)], "cached caller summary");
    assert_eq!(relint.summaries, uncached.summaries);
    // Every SCC of the old corpus kept its key; only the appended method
    // is computed.
    let stats = relint.stats;
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
}
