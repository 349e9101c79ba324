//! Recursive call-graph SCCs against an independent reachability oracle.
//!
//! The AOSP corpus has no recursive method, so every SCC it condenses to
//! is an acyclic singleton, folded once. This suite injects random
//! self-loops and back edges (direct calls and Handler posts) so the
//! SCC-local fixpoint runs, and checks each method's summary against a
//! breadth-first search over the synthesized CFGs' call statements: a
//! method's `(method, site)` set is exactly the allocation sites of every
//! method it reaches, itself included. Uncached and cached runs
//! (populating, then warm) must all produce the same summaries.

use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;

use jgre_analysis::ir::AllocSite;
use jgre_analysis::leakcheck::LeakAnalysis;
use jgre_analysis::{AnalysisOptions, Cfg, LeakChecker, Stmt};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId};
use proptest::prelude::*;

/// One injected edge: `(kind, method, walk)`. Kind 0 is a self-loop on
/// `method`; kinds 1 and 2 walk `walk`-chosen call edges down from
/// `method` and close the cycle from where the walk stops back to
/// `method`, by a direct call (1) or a Handler post (2).
type Injection = (u8, usize, usize);

fn inject(model: &mut CodeModel, (kind, method, walk): Injection) {
    let n = model.methods.len();
    let top = method % n;
    if kind == 0 {
        model.methods[top].calls.push(MethodId(top as u32));
        return;
    }
    let mut at = top;
    let mut choice = walk;
    for _ in 0..1 + walk % 4 {
        let calls = &model.methods[at].calls;
        if calls.is_empty() {
            break;
        }
        at = calls[choice % calls.len()].0 as usize;
        choice /= calls.len();
    }
    let back = MethodId(top as u32);
    let def = &mut model.methods[at];
    if kind == 1 {
        def.calls.push(back);
    } else {
        def.handler_posts.push(back);
    }
}

/// The oracle: for each method, the `(method, site)` pairs of every
/// allocation in every CFG it reaches through call statements.
fn reachable_sites(model: &CodeModel) -> Vec<BTreeSet<(MethodId, AllocSite)>> {
    let n = model.methods.len();
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut own: Vec<Vec<AllocSite>> = vec![Vec::new(); n];
    let mut cfg = Cfg::default();
    for def in &model.methods {
        cfg.synthesize_from(def);
        // Every block's statements, branch arms included.
        for stmt in &cfg.stmts {
            match stmt {
                Stmt::Call { callee, .. } => callees[def.id.0 as usize].push(callee.0 as usize),
                Stmt::AllocJgr { site, .. } => own[def.id.0 as usize].push(*site),
                _ => {}
            }
        }
    }
    (0..n)
        .map(|root| {
            let mut seen = vec![false; n];
            let mut queue = VecDeque::from([root]);
            seen[root] = true;
            let mut sites = BTreeSet::new();
            while let Some(m) = queue.pop_front() {
                sites.extend(own[m].iter().map(|s| (MethodId(m as u32), *s)));
                for &c in &callees[m] {
                    if !seen[c] {
                        seen[c] = true;
                        queue.push_back(c);
                    }
                }
            }
            sites
        })
        .collect()
}

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jgre-recursive-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The summaries of `model` under every run mode, checked equal; returns
/// the uncached analysis.
fn analyse_every_way(model: &CodeModel) -> Result<LeakAnalysis, TestCaseError> {
    let checker = LeakChecker::new(model);
    let uncached = checker.analyze();
    let dir = fresh_cache_dir("modes");
    let cached = AnalysisOptions::with_cache_dir(&dir);
    let populating = checker.analyze_with(&cached);
    let warm = checker.analyze_with(&cached);
    std::fs::remove_dir_all(&dir).ok();
    prop_assert_eq!(&populating.summaries, &uncached.summaries);
    prop_assert_eq!(&warm.summaries, &uncached.summaries);
    prop_assert_eq!(warm.stats.cache_misses, 0);
    Ok(uncached)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recursive_summaries_equal_reachability(
        injections in proptest::collection::vec((0u8..3, 0usize..1 << 20, 0usize..1 << 20), 1..12)
    ) {
        let mut model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        for injection in &injections {
            inject(&mut model, *injection);
        }
        let analysis = analyse_every_way(&model)?;
        let oracle = reachable_sites(&model);
        let self_call = model
            .methods
            .iter()
            .any(|d| d.calls.contains(&d.id) || d.handler_posts.contains(&d.id));
        prop_assert!(
            self_call || analysis.stats.sccs < model.methods.len(),
            "the injections form at least one cycle"
        );
        for def in &model.methods {
            let got: Vec<(MethodId, AllocSite)> = analysis
                .summary(def.id)
                .sites
                .iter()
                .map(|s| (s.method, s.site))
                .collect();
            let want: Vec<(MethodId, AllocSite)> =
                oracle[def.id.0 as usize].iter().copied().collect();
            prop_assert_eq!(got, want, "{}.{}", def.class, def.name);
        }
    }
}
