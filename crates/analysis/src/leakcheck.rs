//! The dataflow leak-check pass: tracks every JGR allocation site to its
//! release (or escape) along all paths, interprocedurally, and derives
//! the paper's four sift rules as verdicts instead of heuristics.
//!
//! Per activation, each reference lives in a small ordered lattice
//! (released < live < escaped-scalar < escaped-bounded <
//! escaped-unbounded); the forward solver joins path states at CFG
//! merges. Method summaries are computed bottom-up over the call graph's
//! SCC condensation (recursive cliques iterate to their own fixpoint),
//! so a caller sees the allocation fates of everything it can reach.
//!
//! The pass is *path-sensitive*: every tracked reference, callee edge,
//! and path carries a [`PredSet`] — a small must-predicate vector
//! (bound-checked, permission-checked, null-checked, error-path) picked
//! up from labeled branch edges. A check therefore clears or caps the
//! individual sites stored under it instead of muting the whole method,
//! and a release skipped by an early error return surfaces as its own
//! leak class ([`LeakVerdict::ErrorPathLeak`], SARIF rule `JGRE004`).
//!
//! [`DataflowDetector`] adapts the verdicts to the step-3
//! [`DetectorOutput`] shape. The legacy heuristic detector lives on only
//! as a test oracle (`jgre-oracles`), whose output must equal this one
//! on the pristine corpus.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use jgre_corpus::spec::ProtectionLevel;
use jgre_corpus::{CodeModel, MethodDef, MethodId};
use jgre_sim::record::StableHasher;
use serde::Serialize;

use crate::cache;
use crate::dataflow::{condense_within, ForwardAnalysis, JoinSemiLattice, Solver};
use crate::ir::{
    corpus_fingerprint, method_fact_fingerprints, AllocSite, BlockId, BranchKind, Cfg, FieldKind,
    Place, Stmt, Terminator, Var,
};
use crate::{DetectorOutput, IpcMethod, JgrEntrySets, RiskyInterface, SiftReason};

/// A small set of branch predicates, as *must*-information: a bit is set
/// when every path reaching the program point (or retaining the site)
/// passed that check. Joins at CFG merges intersect, so a predicate
/// survives only when it holds on all paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct PredSet(u8);

impl PredSet {
    /// The empty set: unconditional.
    pub const NONE: PredSet = PredSet(0);
    /// The path passed a per-process bound admission — retention behind
    /// it is capped by the same bound.
    pub const BOUND_CHECKED: PredSet = PredSet(1);
    /// The path passed an `enforceCallingPermission`-style check.
    pub const PERMISSION_CHECKED: PredSet = PredSet(1 << 1);
    /// The path passed a null check on the binder argument.
    pub const NULL_CHECKED: PredSet = PredSet(1 << 2);
    /// The path is an error path: a failed validation or a denied
    /// permission check — where a skipped release becomes `JGRE004`.
    pub const ERROR_PATH: PredSet = PredSet(1 << 3);

    const ALL_BITS: u8 = 0b1111;

    /// Union with `other`.
    #[must_use]
    pub fn with(self, other: PredSet) -> PredSet {
        PredSet(self.0 | other.0)
    }

    /// Intersection with `other` — the join of must-information.
    #[must_use]
    pub fn meet(self, other: PredSet) -> PredSet {
        PredSet(self.0 & other.0)
    }

    /// Whether every predicate in `other` also holds in `self`.
    pub fn contains(self, other: PredSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no predicate holds.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw bits, for the on-disk cache encoding.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds from raw bits; `None` when unknown bits are set — the
    /// typed rejection the cache decoder relies on for stale lattices.
    pub fn from_bits(bits: u8) -> Option<PredSet> {
        (bits & !Self::ALL_BITS == 0).then_some(PredSet(bits))
    }

    /// Human-readable predicate labels, for diagnostics.
    pub fn labels(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.contains(Self::BOUND_CHECKED) {
            out.push("bound-checked");
        }
        if self.contains(Self::PERMISSION_CHECKED) {
            out.push("permission-checked");
        }
        if self.contains(Self::NULL_CHECKED) {
            out.push("null-checked");
        }
        if self.contains(Self::ERROR_PATH) {
            out.push("error-path");
        }
        out
    }
}

/// Net effect of one allocation site on the process's JGR footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Retention {
    /// Released (or GC-revoked) on every path.
    Released,
    /// Escapes, but the footprint is bounded (scalar replacement or a
    /// bound-checked collection).
    Bounded,
    /// Retained without bound — grows on every call.
    Unbounded,
}

/// How a reference escaped, when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum EscapeKind {
    /// Stored to a scalar member field after the previous value was
    /// released — net retention of one (the paper's rule 4).
    ScalarReplace,
    /// Stored into a collection behind a visible per-process bound check
    /// (Table III); statically still risky.
    BoundedCollection,
    /// Stored into an unbounded member collection.
    UnboundedCollection,
}

/// The fate of one allocation site, with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SiteSummary {
    /// Method whose body contains the allocation.
    pub method: MethodId,
    /// The allocation site.
    pub site: AllocSite,
    /// Net per-call retention.
    pub fate: Retention,
    /// Escape route, when the reference escaped.
    pub escape: Option<EscapeKind>,
    /// Whether the reference was (also) used as a read-only map key —
    /// relevant to the member-replacement proof (rule 4 excludes it).
    pub read_only_key: bool,
    /// Must-predicates guarding the retention: every path on which this
    /// site retains its reference passed these checks. `BOUND_CHECKED`
    /// proves the retention capped; `ERROR_PATH` means the reference
    /// only survives along an error path that skipped its release.
    pub preds: PredSet,
}

/// Bottom-up summary of one method: every allocation site reachable from
/// it (own body plus callees), with fates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MethodSummary {
    /// Reachable allocation sites, deduplicated, sorted by provenance.
    pub sites: Vec<SiteSummary>,
    /// Whether any reachable call edge is a Handler post.
    pub saw_handler: bool,
}

impl MethodSummary {
    /// Worst per-call retention over all reachable sites.
    pub fn retention(&self) -> Option<Retention> {
        self.sites.iter().map(|s| s.fate).max()
    }
}

/// Size and work statistics of one whole-corpus analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SolverStats {
    /// Methods analysed (one CFG each).
    pub methods: usize,
    /// Total basic blocks across all CFGs *synthesized this run* — cache
    /// hits skip synthesis entirely, so a warm run reports fewer.
    pub cfg_blocks: usize,
    /// SCCs of the call graph.
    pub sccs: usize,
    /// Total block transfers executed by the fixpoint solver.
    pub solver_iterations: u64,
    /// SCC summaries served from the cache.
    pub cache_hits: u64,
    /// SCC summaries computed from scratch (every SCC, when no cache
    /// directory is configured).
    pub cache_misses: u64,
    /// Cache regions rejected as corrupt, stale-schema, or unmappable
    /// and recomputed.
    pub cache_invalidated: u64,
}

/// Knobs for one analysis run; the default is uncached and
/// path-sensitive. The bottom-up pass always runs on the calling thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Directory holding the persistent summary cache
    /// ([`cache::CACHE_FILE`] inside it). `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Derive predicate-aware verdicts: error-path leaks get their own
    /// class (`JGRE004`) and bound-checked sites count as proven. `false`
    /// reproduces the boolean-era derivation — summaries (and therefore
    /// the cache) are identical either way; only the verdict and
    /// diagnostic layers read the flag.
    pub path_sensitive: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            cache_dir: None,
            path_sensitive: true,
        }
    }
}

impl AnalysisOptions {
    /// Options with a cache directory set.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            cache_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Turns off predicate-aware verdict derivation (the boolean-era
    /// behavior) — the baseline the subset property tests compare
    /// against.
    pub fn path_insensitive(mut self) -> Self {
        self.path_sensitive = false;
        self
    }
}

/// The dataflow verdict for one IPC method — the paper's sift rules
/// derived from reference fates instead of pattern-matched heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum LeakVerdict {
    /// No JGR allocation is reachable at all.
    NoJgr,
    /// Every reachable allocation is the thread peer, released on all
    /// paths when the thread exits (rule 1).
    ThreadCreateRelease,
    /// Every binder argument is released on all paths — local use or
    /// read-only key, GC revokes after the call (rules 2-3).
    TransientParams,
    /// Binder arguments land in scalar member fields whose previous
    /// value is released first — net retention of one (rule 4).
    MemberReplacement,
    /// Retention is real but provably bounded by a per-process limit;
    /// statically risky, dynamic verification decides (Table III).
    BoundedRetention,
    /// Every unbounded site leaks only along an error path that skipped
    /// its release (early return / denied permission) — the
    /// conditional-release class, SARIF rule `JGRE004`.
    ErrorPathLeak,
    /// At least one allocation site is retained without bound.
    UnboundedLeak,
}

impl LeakVerdict {
    /// Whether the verdict keeps the interface in the risky set.
    pub fn is_risky(self) -> bool {
        matches!(
            self,
            LeakVerdict::BoundedRetention | LeakVerdict::ErrorPathLeak | LeakVerdict::UnboundedLeak
        )
    }

    /// The legacy sift reason this verdict corresponds to, for verdicts
    /// that clear the candidate.
    pub fn sift_reason(self) -> Option<SiftReason> {
        match self {
            LeakVerdict::NoJgr => Some(SiftReason::NoJgrReach),
            LeakVerdict::ThreadCreateRelease => Some(SiftReason::ThreadCreateOnly),
            LeakVerdict::TransientParams => Some(SiftReason::TransientUsage),
            LeakVerdict::MemberReplacement => Some(SiftReason::ReplacedMember),
            LeakVerdict::BoundedRetention
            | LeakVerdict::ErrorPathLeak
            | LeakVerdict::UnboundedLeak => None,
        }
    }
}

// ------------------------------------------------------------------
// Intraprocedural abstract state
// ------------------------------------------------------------------

/// Per-reference lattice value; join is max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum VarState {
    /// Released (or GC-revoked) on this path.
    Released,
    /// Allocated and still held by a register only.
    Live,
    /// Stored to a scalar field whose previous value was released.
    EscapedScalar,
    /// Stored into a bound-checked collection.
    EscapedBounded,
    /// Stored into an unbounded collection (or scalar without release).
    EscapedUnbounded,
}

/// Abstract state at one program point.
///
/// Predicates are tracked at three granularities, which is what fixes
/// the old over-wide boolean `guard`: `path` is the must-predicate set
/// of the current path, each var carries the predicates under which it
/// reached its current lattice value, and each callee edge carries the
/// predicates that guarded the call. Joining two paths intersects each
/// of those *independently*, so losing a predicate on one path no longer
/// strips it from sites and calls that were individually guarded.
///
/// Storage is dense and small: the sets are sorted vectors, `vars` is
/// indexed by register and never ends in an unset slot, so the derived
/// equality is set equality, and `clone_from` reuses every buffer.
#[derive(Debug, Default, PartialEq, Eq)]
struct LeakState {
    /// Lattice value per register, with the must-predicates under which
    /// the register reached that value.
    vars: Vec<Option<(VarState, PredSet)>>,
    /// Fields whose previous value was released and not yet overwritten
    /// (must-information: intersected at joins). Sorted.
    cleared: Vec<&'static str>,
    /// Registers used as read-only map keys. Sorted.
    key_use: Vec<Var>,
    /// Callees invoked on some path, with the must-predicates that
    /// guarded every call — a callee only reached under `BOUND_CHECKED`
    /// has its retention capped by that same bound. Sorted by callee.
    called: Vec<(MethodId, PredSet)>,
    /// Must-predicates of the current path (intersected at joins).
    path: PredSet,
    /// Whether a Handler-post edge was taken.
    handler: bool,
}

impl Clone for LeakState {
    fn clone(&self) -> Self {
        let mut out = LeakState::default();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, source: &Self) {
        self.vars.clone_from(&source.vars);
        self.cleared.clone_from(&source.cleared);
        self.key_use.clone_from(&source.key_use);
        self.called.clone_from(&source.called);
        self.path = source.path;
        self.handler = source.handler;
    }
}

/// Inserts `x` into the sorted set `set`; true when it was new.
fn insert_sorted<T: Ord>(set: &mut Vec<T>, x: T) -> bool {
    match set.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            set.insert(i, x);
            true
        }
    }
}

impl LeakState {
    /// The lattice value of `v`, when it has one.
    fn var(&self, v: Var) -> Option<(VarState, PredSet)> {
        self.vars.get(v as usize).copied().flatten()
    }

    /// The slot of `v`, grown into existence. The caller sets it, which
    /// keeps the last slot set.
    fn var_slot(&mut self, v: Var) -> &mut Option<(VarState, PredSet)> {
        let i = v as usize;
        if self.vars.len() <= i {
            self.vars.resize(i + 1, None);
        }
        &mut self.vars[i]
    }

    /// Records a call to `callee` under `preds`, keeping only the
    /// predicates every call to it agrees on; true when that changed
    /// anything.
    fn call(&mut self, callee: MethodId, preds: PredSet) -> bool {
        match self.called.binary_search_by_key(&callee, |(c, _)| *c) {
            Ok(i) => {
                let cur = &mut self.called[i].1;
                let met = cur.meet(preds);
                let changed = met != *cur;
                *cur = met;
                changed
            }
            Err(i) => {
                self.called.insert(i, (callee, preds));
                true
            }
        }
    }
}

impl JoinSemiLattice for LeakState {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        if self.vars.len() < other.vars.len() {
            self.vars.resize(other.vars.len(), None);
        }
        for (slot, theirs) in self.vars.iter_mut().zip(&other.vars) {
            let Some((s, p)) = *theirs else {
                continue;
            };
            match slot {
                None => {
                    *slot = Some((s, p));
                    changed = true;
                }
                Some((cur, cp)) => {
                    if *cur < s {
                        *cur = s;
                        *cp = p;
                        changed = true;
                    } else if *cur == s {
                        let met = cp.meet(p);
                        if met != *cp {
                            *cp = met;
                            changed = true;
                        }
                    }
                }
            }
        }
        let before = self.cleared.len();
        self.cleared
            .retain(|f| other.cleared.binary_search(f).is_ok());
        changed |= self.cleared.len() != before;
        for k in &other.key_use {
            changed |= insert_sorted(&mut self.key_use, *k);
        }
        for (c, p) in &other.called {
            changed |= self.call(*c, *p);
        }
        let met = self.path.meet(other.path);
        if met != self.path {
            self.path = met;
            changed = true;
        }
        if other.handler && !self.handler {
            self.handler = true;
            changed = true;
        }
        changed
    }
}

struct LeakBodyAnalysis;

impl ForwardAnalysis for LeakBodyAnalysis {
    type State = LeakState;

    fn boundary(&self) -> LeakState {
        LeakState::default()
    }

    fn transfer(&self, stmt: &Stmt, state: &mut LeakState) {
        match stmt {
            Stmt::AllocJgr { dst, .. } => {
                let path = state.path;
                *state.var_slot(*dst) = Some((VarState::Live, path));
            }
            Stmt::ReleaseJgr { src: Place::Var(v) } => {
                let path = state.path;
                *state.var_slot(*v) = Some((VarState::Released, path));
            }
            Stmt::ReleaseJgr {
                src: Place::Field(f),
            } => {
                insert_sorted(&mut state.cleared, *f);
            }
            Stmt::StoreField { src, field, kind } => {
                // Escalation stamps the *current* path predicates onto the
                // var when it climbs; re-reaching the same value only keeps
                // the predicates both occurrences agree on.
                let escalate = |state: &mut LeakState, v: Var, to: VarState| {
                    let path = state.path;
                    let entry = state.var_slot(v).get_or_insert((VarState::Live, path));
                    if to > entry.0 {
                        *entry = (to, path);
                    } else if to == entry.0 {
                        entry.1 = entry.1.meet(path);
                    }
                };
                match kind {
                    FieldKind::Collection { bounded: false } => {
                        escalate(state, *src, VarState::EscapedUnbounded);
                    }
                    FieldKind::Collection { bounded: true } => {
                        escalate(state, *src, VarState::EscapedBounded);
                        // The path passed the bound admission: whatever
                        // runs after it on this path is capped too.
                        state.path = state.path.with(PredSet::BOUND_CHECKED);
                    }
                    FieldKind::MapKeyReadOnly => {
                        // A key lookup does not retain the reference.
                        insert_sorted(&mut state.key_use, *src);
                    }
                    FieldKind::Scalar => {
                        // Bounded only when the previous value was
                        // provably released before this store.
                        let replaced = match state.cleared.binary_search(field) {
                            Ok(i) => {
                                state.cleared.remove(i);
                                true
                            }
                            Err(_) => false,
                        };
                        let to = if replaced {
                            VarState::EscapedScalar
                        } else {
                            VarState::EscapedUnbounded
                        };
                        escalate(state, *src, to);
                    }
                }
            }
            Stmt::StoreLocal { .. } => {}
            Stmt::Call {
                callee,
                via_handler,
            } => {
                let path = state.path;
                state.call(*callee, path);
                state.handler |= *via_handler;
            }
        }
    }

    fn transfer_edge(&self, term: &Terminator, succ_index: usize, state: &mut LeakState) {
        let Terminator::Branch { kind, .. } = *term else {
            return;
        };
        // Successor 0 is the then-edge, successor 1 the else-edge
        // ([`Terminator::successors`]). Each labeled branch establishes
        // its predicate on exactly one side.
        let pred = match (kind, succ_index) {
            (BranchKind::BoundCheck, 0) => PredSet::BOUND_CHECKED,
            (BranchKind::PermissionCheck, 0) => PredSet::PERMISSION_CHECKED,
            (BranchKind::PermissionCheck, _) => PredSet::ERROR_PATH,
            (BranchKind::NullCheck, 0) => PredSet::NULL_CHECKED,
            (BranchKind::ErrorCheck, 1) => PredSet::ERROR_PATH,
            _ => PredSet::NONE,
        };
        state.path = state.path.with(pred);
    }
}

// ------------------------------------------------------------------
// Whole-corpus analysis
// ------------------------------------------------------------------

/// One method's solved intraprocedural result.
#[derive(Debug, Clone, Default)]
struct IntraResult {
    /// Join of the exit states of all return blocks.
    final_state: LeakState,
    /// Allocation site per register (the last allocation into it).
    var_sites: Vec<Option<AllocSite>>,
}

/// The pass's buffers, reused method after method: the CFG, the solver,
/// the solved result and the fold's site runs. A method
/// solved and folded through a warm scratch allocates only its summary's
/// site list.
#[derive(Debug, Default)]
struct Scratch {
    cfg: Cfg,
    solver: Solver<LeakState>,
    /// A return block's exit state, stamped before it is joined.
    exit: LeakState,
    intra: IntraResult,
    fold: FoldBuffers,
}

/// The two site runs [`fold_summary`] merges between.
#[derive(Debug, Default)]
struct FoldBuffers {
    sites: Vec<SiteSummary>,
    merged: Vec<SiteSummary>,
}

/// Runs the leak-check pass over a whole code model.
#[derive(Debug)]
pub struct LeakChecker<'m> {
    model: &'m CodeModel,
    /// Step-2 entry sets; when present, entry-set membership is part of
    /// each method's fact fingerprint (the native side is not otherwise
    /// visible in Java facts).
    entries: Option<&'m JgrEntrySets>,
}

/// Per-method state of one run, seeded from Tier A outside the edit's
/// cone and filled SCC by SCC inside it.
struct MethodTables {
    /// `None` until the method's SCC is seeded or processed.
    summaries: Vec<Option<MethodSummary>>,
    /// The next cache file's index (caching runs only): seeded rows as
    /// loaded, the others written as their SCCs complete. Callers' SCC
    /// keys read the callee summary fingerprints from it instead of
    /// re-encoding the callee summary for every call edge.
    index: Vec<cache::IndexRow>,
}

/// What Tier A settled before any SCC is processed.
struct Seed {
    tables: MethodTables,
    /// Methods whose summaries this run must compute or look up in Tier
    /// B — all of them without a usable index.
    dirty: Vec<bool>,
    /// SCCs served whole from Tier A.
    clean_sccs: usize,
    /// Loaded Tier B records still in use, by position.
    carried: Vec<bool>,
}

/// The completed whole-corpus analysis: per-method summaries plus
/// solver statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakAnalysis {
    /// Bottom-up summary per method, indexed by [`MethodId`].
    pub summaries: Vec<MethodSummary>,
    /// Work statistics.
    pub stats: SolverStats,
}

impl<'m> LeakChecker<'m> {
    /// Wraps a code model.
    pub fn new(model: &'m CodeModel) -> Self {
        Self {
            model,
            entries: None,
        }
    }

    /// Folds the step-2 JGR entry sets into the fact fingerprints, so a
    /// native-side change that flips a method's entry membership also
    /// invalidates its cached summaries.
    pub fn with_entries(mut self, entries: &'m JgrEntrySets) -> Self {
        self.entries = Some(entries);
        self
    }

    /// Synthesizes every method's CFG, solves it to a fixpoint, and folds
    /// callee summaries bottom-up over the SCC condensation.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_analysis::leakcheck::{LeakChecker, LeakVerdict};
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let analysis = LeakChecker::new(&model).analyze();
    /// let link = model.find_method("android.os.Binder", "linkToDeathNative").unwrap();
    /// assert_eq!(analysis.verdict_for(link), LeakVerdict::UnboundedLeak);
    /// ```
    pub fn analyze(&self) -> LeakAnalysis {
        self.analyze_with(&AnalysisOptions::default())
    }

    /// [`LeakChecker::analyze`] with a cache directory.
    ///
    /// With a cache directory the run is incremental: the Tier A index
    /// names the methods whose facts changed, and only the SCCs of their
    /// caller cone are processed — looked up in Tier B, else recomputed.
    /// Every other method takes its summary from Tier A, so an unchanged
    /// corpus processes no SCC at all. Without a usable index (no file,
    /// another method count, a rejected index) every SCC goes through
    /// Tier B. Verdicts are structurally identical in every mode — hits
    /// and misses only show up in [`SolverStats`]. Cache writes are
    /// best-effort: an unwritable directory degrades to a cold run, never
    /// an error.
    pub fn analyze_with(&self, options: &AnalysisOptions) -> LeakAnalysis {
        let model = self.model;
        let n = model.methods.len();
        let mut stats = SolverStats {
            methods: n,
            ..SolverStats::default()
        };

        let cache_path = options
            .cache_dir
            .as_ref()
            .map(|dir| dir.join(cache::CACHE_FILE));
        let caching = cache_path.is_some();
        // Fact fingerprints key the cache and are cheap (no CFG
        // synthesis): on an unchanged corpus they are all
        // the run compares. An uncached run never reads them.
        let (fps, corpus_fp, mut loaded) = match &cache_path {
            Some(path) => {
                let mut is_jgr_entry = vec![false; n];
                if let Some(entries) = self.entries {
                    for id in &entries.java_entries {
                        if let Some(slot) = is_jgr_entry.get_mut(id.0 as usize) {
                            *slot = true;
                        }
                    }
                }
                let fps = method_fact_fingerprints(model, &is_jgr_entry);
                let corpus_fp = corpus_fingerprint(&fps).0;
                let loaded = cache::load(path, corpus_fp, n);
                (fps, corpus_fp, loaded)
            }
            None => (Vec::new(), 0, cache::LoadedCache::default()),
        };
        stats.cache_invalidated = loaded.invalidated;

        // A clean exact hit: Tier B went unverified because the header
        // matched, and every fact fingerprint matches the index. Tier A
        // is the answer as loaded; no table is rebuilt and the file
        // stays as it is.
        let clean_exact_hit = loaded.tier_a.is_some()
            && !loaded.tier_b_verified
            && loaded
                .index
                .iter()
                .zip(&fps)
                .all(|(row, fp)| row.fact_fp == *fp);
        if clean_exact_hit {
            stats.sccs = loaded.scc_count as usize;
            stats.cache_hits = stats.sccs as u64;
            let summaries = loaded.tier_a.take().unwrap_or_default();
            return LeakAnalysis { summaries, stats };
        }

        let Seed {
            tables,
            dirty,
            clean_sccs,
            carried,
        } = seed(model, &fps, &mut loaded, caching);

        // Only the SCCs touching the dirty set are processed; the set is
        // closed under callers, so each of them is wholly dirty.
        let cond = condense_within(model, &dirty);
        stats.sccs = clean_sccs + cond.len();
        stats.cache_hits = clean_sccs as u64;
        let mut pass = Pass {
            model,
            caching,
            fps: &fps,
            scc_index: cond.scc_index(n),
            tier_b: &loaded.tier_b,
            tables,
            stats,
            carried,
            fresh: BTreeMap::new(),
            scratch: Scratch::default(),
        };
        for (i, scc) in cond.sccs().enumerate() {
            pass.process_scc(i, scc);
        }
        let Pass {
            tables,
            stats,
            carried,
            fresh,
            ..
        } = pass;
        let summaries: Vec<MethodSummary> = tables
            .summaries
            .into_iter()
            .map(|s| s.expect("every SCC processed"))
            .collect();

        // A clean exact hit leaves the file as it is. Anything else
        // rewrites it whole: Tier A for this corpus, and in Tier B the
        // records of this corpus's SCCs only, so stale keys are
        // garbage-collected.
        let unchanged = loaded.exact && stats.cache_invalidated == 0 && cond.is_empty();
        if let Some(path) = cache_path.as_ref().filter(|_| !unchanged) {
            let mut tier_a = cache::encode_tier_a(&summaries);
            cache::encode_index(&mut tier_a, &tables.index);
            let tier_b = loaded.tier_b.carry_over(&carried, fresh);
            let _ = cache::store(path, corpus_fp, stats.sccs as u32, &tier_a, &tier_b);
        }
        LeakAnalysis { summaries, stats }
    }
}

/// One run's serial pass over the condensation's SCCs in the callee-first
/// order Tarjan emits them: what it reads, and the tables, statistics and
/// Tier B records it writes as each SCC completes.
struct Pass<'a> {
    model: &'a CodeModel,
    caching: bool,
    /// Fact fingerprints (caching runs only).
    fps: &'a [u64],
    /// [`Condensation::scc_index`](crate::dataflow::Condensation::scc_index)
    /// of the processed SCCs.
    scc_index: Vec<usize>,
    tier_b: &'a cache::TierB,
    tables: MethodTables,
    stats: SolverStats,
    /// Loaded Tier B records still in use, by position.
    carried: Vec<bool>,
    /// Records encoded by this run, by SCC key.
    fresh: BTreeMap<u64, Vec<u8>>,
    scratch: Scratch,
}

impl Pass<'_> {
    /// Serves one SCC from Tier B or computes it — intra solve per member,
    /// then one fold against the finished callee summaries, iterated to
    /// the SCC-local fixpoint when the SCC is recursive — and writes its
    /// summaries, index rows, statistics and record.
    fn process_scc(&mut self, scc_idx: usize, scc: &[MethodId]) {
        let model = self.model;
        // One pass suffices only because every external callee finished
        // before this SCC; the fold skips a callee without a summary, so
        // an order regression would silently drop its sites.
        for m in scc {
            let def = model.method(*m);
            for callee in def.calls.iter().chain(def.handler_posts.iter()) {
                let callee = callee.0 as usize;
                assert!(
                    self.scc_index[callee] == scc_idx || self.tables.summaries[callee].is_some(),
                    "callee-first SCC order"
                );
            }
        }
        let key = if self.caching {
            self.scc_key(scc_idx, scc)
        } else {
            0
        };
        // Tier B is empty when caching is off. An equal key means equal
        // inputs to the fold, so a record that decodes for this SCC is
        // what a fresh run would encode, and is carried as stored.
        if let Some((pos, bytes)) = self.tier_b.find(key) {
            match cache::decode_record(bytes, scc, model.methods.len()) {
                Some(members) => {
                    self.stats.cache_hits += 1;
                    self.carried[pos] = true;
                    for (m, summary) in members {
                        self.write(key, m, summary);
                    }
                    return;
                }
                // A key collision or hand-crafted record that passed
                // the checksum but is not this SCC's.
                None => self.stats.cache_invalidated += 1,
            }
        }

        self.stats.cache_misses += 1;
        let Self {
            tables,
            stats,
            scratch,
            ..
        } = self;
        let finished = |callee: MethodId| tables.summaries[callee.0 as usize].as_ref();
        match *scc {
            // An acyclic SCC: every callee is finished, so one fold is
            // the fixpoint.
            [m] if !calls_itself(model.method(m)) => {
                let (blocks, iterations) = scratch.solve_intra(model.method(m));
                stats.cfg_blocks += blocks;
                stats.solver_iterations += iterations;
                let summary = fold_summary(m, &scratch.intra, finished, &mut scratch.fold);
                self.computed(key, &mut [(m, summary)]);
            }
            _ => {
                let intras: Vec<IntraResult> = scc
                    .iter()
                    .map(|m| {
                        let (blocks, iterations) = scratch.solve_intra(model.method(*m));
                        stats.cfg_blocks += blocks;
                        stats.solver_iterations += iterations;
                        scratch.intra.clone()
                    })
                    .collect();
                // The SCC-local fixpoint: summaries only grow, so it
                // terminates. Members see each other's latest summaries.
                let mut local = vec![MethodSummary::default(); scc.len()];
                loop {
                    let mut changed = false;
                    for (i, m) in scc.iter().enumerate() {
                        let lookup = |callee: MethodId| match scc.binary_search(&callee) {
                            Ok(k) => Some(&local[k]),
                            Err(_) => finished(callee),
                        };
                        let folded = fold_summary(*m, &intras[i], lookup, &mut scratch.fold);
                        if local[i] != folded {
                            local[i] = folded;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                let mut members: Vec<_> = scc.iter().copied().zip(local).collect();
                self.computed(key, &mut members);
            }
        }
    }

    /// Writes a computed SCC: its Tier B record (caching runs), then each
    /// member's summary.
    fn computed(&mut self, key: u64, members: &mut [(MethodId, MethodSummary)]) {
        if self.caching {
            self.fresh.insert(key, cache::encode_record(members));
        }
        for (m, summary) in members {
            self.write(key, *m, std::mem::take(summary));
        }
    }

    /// Writes one finished summary where callers' folds and keys read it:
    /// its table slot and, on caching runs, its index row.
    fn write(&mut self, key: u64, m: MethodId, summary: MethodSummary) {
        let i = m.0 as usize;
        if self.caching {
            self.tables.index[i] = cache::IndexRow {
                fact_fp: self.fps[i],
                scc_key: key,
                summary_fp: cache::summary_fingerprint(m, &summary),
            };
        }
        self.tables.summaries[i] = Some(summary);
    }

    /// The SCC cache key: the schema version, each member's id and fact
    /// fingerprint (`scc` is in `MethodId` order), then the summary
    /// fingerprint of every external callee, edge by edge in the
    /// members' call order. Fact fingerprints name callees by id, so
    /// equal keys mean equal inputs to the fold — the same members,
    /// facts and callee summaries under the same numbering — and a
    /// record stored under the key holds exactly this SCC's summaries.
    fn scc_key(&self, scc_idx: usize, scc: &[MethodId]) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(0x4a47_5245_534b_5932); // "JGRESKY2": SCC-key tag
        h.write_u32(cache::SCHEMA_VERSION);
        h.write_u32(scc.len() as u32);
        for m in scc {
            h.write_u32(m.0);
            h.write_u64(self.fps[m.0 as usize]);
        }
        for m in scc {
            let def = self.model.method(*m);
            for callee in def.calls.iter().chain(def.handler_posts.iter()) {
                let callee = callee.0 as usize;
                if self.scc_index[callee] != scc_idx {
                    h.write_u64(self.tables.index[callee].summary_fp);
                }
            }
        }
        h.finish()
    }
}

/// Splits the corpus at the edit. With a Tier A index for this method
/// count, a method is dirty when its fact fingerprint differs from the
/// index, or when its SCC's Tier B record is missing from a verified file
/// (so a repaired file holds every record again); every caller of a dirty
/// method is dirty too. Every other method keeps its summary and index
/// row from Tier A, and its SCC's record is carried over. Without an
/// index every method is dirty.
fn seed(model: &CodeModel, fps: &[u64], loaded: &mut cache::LoadedCache, caching: bool) -> Seed {
    let n = model.methods.len();
    let Some(table) = loaded.tier_a.take() else {
        return Seed {
            tables: MethodTables {
                summaries: vec![None; n],
                index: vec![cache::IndexRow::default(); if caching { n } else { 0 }],
            },
            dirty: vec![true; n],
            clean_sccs: 0,
            carried: vec![false; loaded.tier_b.len()],
        };
    };
    let index = std::mem::take(&mut loaded.index);
    let record_at: Vec<Option<usize>> = if loaded.tier_b_verified {
        index
            .iter()
            .map(|row| loaded.tier_b.position(row.scc_key))
            .collect()
    } else {
        Vec::new()
    };
    let mut dirty: Vec<bool> = index
        .iter()
        .zip(fps)
        .enumerate()
        .map(|(i, (row, fp))| row.fact_fp != *fp || record_at.get(i).is_some_and(Option::is_none))
        .collect();
    close_under_callers(model, &mut dirty);

    let mut carried = vec![false; loaded.tier_b.len()];
    let mut clean_sccs = 0;
    for (pos, dirty) in record_at.iter().zip(&dirty) {
        // Members of one SCC share its record: count it once.
        if let (Some(pos), false) = (*pos, *dirty) {
            clean_sccs += usize::from(!carried[pos]);
            carried[pos] = true;
        }
    }
    // Collected in place: `Option<MethodSummary>` has the summary's
    // layout, so the table's buffer is reused.
    let mut summaries: Vec<Option<MethodSummary>> = table.into_iter().map(Some).collect();
    for (summary, dirty) in summaries.iter_mut().zip(&dirty) {
        if *dirty {
            *summary = None;
        }
    }
    Seed {
        tables: MethodTables { summaries, index },
        dirty,
        clean_sccs,
        carried,
    }
}

/// Closes `dirty` under callers (direct calls and Handler posts): a
/// method whose callee's summary may change must be recomputed too.
fn close_under_callers(model: &CodeModel, dirty: &mut [bool]) {
    let mut work: Vec<u32> = (0..dirty.len() as u32)
        .filter(|&i| dirty[i as usize])
        .collect();
    if work.is_empty() {
        return;
    }
    fn callees(def: &MethodDef) -> impl Iterator<Item = usize> + '_ {
        def.calls
            .iter()
            .chain(def.handler_posts.iter())
            .map(|m| m.0 as usize)
    }
    // Callers in compressed rows: the callers of `m` are
    // `callers[start[m]..start[m + 1]]`. Rows are filled back to front
    // from their ends, which leaves `start[m]` at each row's first slot.
    let n = dirty.len();
    let mut start = vec![0u32; n + 1];
    for def in &model.methods {
        for callee in callees(def) {
            start[callee] += 1;
        }
    }
    for i in 1..=n {
        start[i] += start[i - 1];
    }
    let mut callers = vec![0u32; start[n] as usize];
    for (caller, def) in model.methods.iter().enumerate() {
        for callee in callees(def) {
            start[callee] -= 1;
            callers[start[callee] as usize] = caller as u32;
        }
    }
    while let Some(m) = work.pop() {
        let m = m as usize;
        for &caller in &callers[start[m] as usize..start[m + 1] as usize] {
            if !dirty[caller as usize] {
                dirty[caller as usize] = true;
                work.push(caller);
            }
        }
    }
}

/// Whether `def` calls itself (directly or by a Handler post): the one
/// way a single-method SCC is recursive.
fn calls_itself(def: &MethodDef) -> bool {
    def.calls.contains(&def.id) || def.handler_posts.contains(&def.id)
}

/// Synthesizes and solves every method's CFG intraprocedurally and
/// returns the total number of solver block transfers — a deterministic
/// cost probe for benchmarking the predicate lattice against simpler
/// baselines. One CFG and [`Solver`] are reused from method to method; a
/// baseline on equal terms does the same with [`Cfg::synthesize_from`]
/// and its own [`Solver`].
pub fn intra_solver_cost(model: &CodeModel) -> u64 {
    let mut scratch = Scratch::default();
    model
        .methods
        .iter()
        .map(|def| scratch.solve_intra(def).1)
        .sum()
}

impl Scratch {
    /// Synthesizes and solves one method's CFG into `self.intra`;
    /// returns the CFG's block count and the solver's block transfers.
    fn solve_intra(&mut self, def: &MethodDef) -> (usize, u64) {
        self.cfg.synthesize_from(def);
        let iterations = self.solver.solve(&self.cfg, &LeakBodyAnalysis);
        let Self {
            cfg,
            solver,
            exit,
            intra,
            ..
        } = self;
        let mut joined = false;
        for (i, block) in cfg.blocks.iter().enumerate() {
            if !matches!(block.term, Terminator::Return) {
                continue;
            }
            let Some(solved) = solver.exit(BlockId(i as u32)) else {
                continue;
            };
            let target = if joined {
                &mut *exit
            } else {
                &mut intra.final_state
            };
            target.clone_from(solved);
            // A var still Live at this return leaks *at this exit*: stamp
            // the exit path's predicates onto it so an early error return
            // that bypasses the release is distinguishable from the normal
            // exit. Escaped vars keep their store-time predicates — the
            // exit path may have acquired predicates after the store that
            // never guarded it.
            let exit_path = target.path;
            for (st, preds) in target.vars.iter_mut().flatten() {
                if *st == VarState::Live {
                    *preds = preds.with(exit_path);
                }
            }
            if joined {
                intra.final_state.join(exit);
            }
            joined = true;
        }
        if !joined {
            intra.final_state.clone_from(&LeakState::default());
        }
        intra.var_sites.clear();
        for b in 0..cfg.blocks.len() {
            for stmt in cfg.block_stmts(BlockId(b as u32)) {
                if let Stmt::AllocJgr { dst, site } = *stmt {
                    let v = dst as usize;
                    if intra.var_sites.len() <= v {
                        intra.var_sites.resize(v + 1, None);
                    }
                    intra.var_sites[v] = Some(site);
                }
            }
        }
        (cfg.blocks.len(), iterations)
    }
}

/// The sort key of a summary's sites.
fn site_key(s: &SiteSummary) -> (MethodId, AllocSite) {
    (s.method, s.site)
}

/// Merges `s` into `old`, an entry for the same site: the worse fate
/// wins, and an equal fate reached along two routes keeps only the
/// predicates every route agrees on.
fn merge_site(old: &mut SiteSummary, s: SiteSummary) {
    let key = old.read_only_key || s.read_only_key;
    if s.fate > old.fate {
        *old = s;
    } else if s.fate == old.fate {
        old.preds = old.preds.meet(s.preds);
    }
    old.read_only_key = key;
}

/// Folds a method's intraprocedural result with its callees' summaries,
/// as `callee` serves them (`None`: nothing known, skipped).
///
/// Sites stay sorted by `(method, site)` throughout: the own sites go in
/// by binary search, then each callee's site list, already in that
/// order, is merged in linearly, callees in id order.
fn fold_summary<'a>(
    own: MethodId,
    intra: &IntraResult,
    callee: impl Fn(MethodId) -> Option<&'a MethodSummary>,
    buf: &mut FoldBuffers,
) -> MethodSummary {
    let FoldBuffers { sites, merged } = buf;
    sites.clear();
    let own_sites = intra.var_sites.iter().enumerate();
    for (var, site) in own_sites.filter_map(|(v, s)| Some((v as Var, (*s)?))) {
        let (state, preds) = intra
            .final_state
            .var(var)
            .unwrap_or((VarState::Live, PredSet::NONE));
        let (fate, escape) = match state {
            VarState::Released => (Retention::Released, None),
            // Still live at exit: the reference outlives the activation
            // (handed to the caller) — conservatively unbounded.
            VarState::Live => (Retention::Unbounded, None),
            VarState::EscapedScalar => (Retention::Bounded, Some(EscapeKind::ScalarReplace)),
            VarState::EscapedBounded => (Retention::Bounded, Some(EscapeKind::BoundedCollection)),
            VarState::EscapedUnbounded => {
                (Retention::Unbounded, Some(EscapeKind::UnboundedCollection))
            }
        };
        let s = SiteSummary {
            method: own,
            site,
            fate,
            escape,
            read_only_key: intra.final_state.key_use.binary_search(&var).is_ok(),
            preds,
        };
        match sites.binary_search_by_key(&site_key(&s), site_key) {
            Ok(i) => merge_site(&mut sites[i], s),
            Err(i) => sites.insert(i, s),
        }
    }
    let mut saw_handler = intra.final_state.handler;
    for &(id, call_preds) in &intra.final_state.called {
        let Some(cs) = callee(id) else {
            continue;
        };
        saw_handler |= cs.saw_handler;
        merged.clear();
        let mut acc = sites.iter().copied().peekable();
        for s in &cs.sites {
            let mut s = *s;
            // The caller's call-site predicates guard everything the
            // callee does: a callee only ever reached through a bound
            // admission inherits the bound — its retention cannot exceed
            // the per-process limit.
            s.preds = s.preds.with(call_preds);
            if s.preds.contains(PredSet::BOUND_CHECKED) && s.fate == Retention::Unbounded {
                s.fate = Retention::Bounded;
            }
            while let Some(a) = acc.next_if(|a| site_key(a) < site_key(&s)) {
                merged.push(a);
            }
            match acc.next_if(|a| site_key(a) == site_key(&s)) {
                Some(mut a) => {
                    merge_site(&mut a, s);
                    merged.push(a);
                }
                None => merged.push(s),
            }
        }
        merged.extend(acc);
        std::mem::swap(sites, merged);
    }
    MethodSummary {
        sites: sites.to_vec(),
        saw_handler,
    }
}

impl LeakAnalysis {
    /// The summary of one method.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not part of the analysed model.
    pub fn summary(&self, id: MethodId) -> &MethodSummary {
        &self.summaries[id.0 as usize]
    }

    /// Derives the sift verdict for an IPC root from reference fates,
    /// reading the per-site predicates ([`LeakAnalysis::verdict_for`]
    /// with path sensitivity on).
    pub fn verdict_for(&self, root: MethodId) -> LeakVerdict {
        self.verdict_for_with(root, true)
    }

    /// [`LeakAnalysis::verdict_for`] with path sensitivity as a knob.
    ///
    /// Summaries always carry predicates; the knob only controls whether
    /// the verdict *reads* them. With `path_sensitive` off, every
    /// unbounded site is a plain [`LeakVerdict::UnboundedLeak`] — the
    /// pre-predicate behaviour, kept as the soundness baseline the
    /// path-sensitive findings must be a subset of.
    pub fn verdict_for_with(&self, root: MethodId, path_sensitive: bool) -> LeakVerdict {
        let Some(summary) = self.summaries.get(root.0 as usize) else {
            return LeakVerdict::NoJgr;
        };
        let sites = &summary.sites;
        if sites.is_empty() {
            return LeakVerdict::NoJgr;
        }
        if sites.iter().any(|s| s.fate == Retention::Unbounded) {
            let unbounded = sites.iter().filter(|s| s.fate == Retention::Unbounded);
            if path_sensitive
                && unbounded
                    .clone()
                    .all(|s| s.preds.contains(PredSet::ERROR_PATH))
            {
                // Every unbounded site leaks only on an error return that
                // skipped the release: still a leak, but a distinct class
                // (JGRE004) — the normal path releases correctly.
                return LeakVerdict::ErrorPathLeak;
            }
            return LeakVerdict::UnboundedLeak;
        }
        if sites.iter().any(|s| {
            matches!(
                s.escape,
                Some(EscapeKind::BoundedCollection | EscapeKind::UnboundedCollection)
            )
        }) {
            // No unbounded fate remains, so every collection escape is
            // behind a bound admission: real but capped retention.
            return LeakVerdict::BoundedRetention;
        }
        // All fates are Released or scalar-bounded from here on.
        let non_thread: Vec<&SiteSummary> = sites
            .iter()
            .filter(|s| s.site != AllocSite::ThreadPeer)
            .collect();
        if non_thread.is_empty() {
            return LeakVerdict::ThreadCreateRelease;
        }
        if non_thread
            .iter()
            .all(|s| matches!(s.site, AllocSite::BinderParam(_)))
        {
            if non_thread.iter().all(|s| s.fate == Retention::Released) {
                return LeakVerdict::TransientParams;
            }
            // Rule 4 is only sound when every argument either replaces a
            // scalar member or stays local; a read-only-key use alongside
            // defeats the proof, matching the paper's rule application.
            if non_thread.iter().all(|s| {
                s.escape == Some(EscapeKind::ScalarReplace)
                    || (s.fate == Retention::Released && !s.read_only_key)
            }) {
                return LeakVerdict::MemberReplacement;
            }
        }
        LeakVerdict::UnboundedLeak
    }
}

// ------------------------------------------------------------------
// Detector front-end
// ------------------------------------------------------------------

/// One IPC method's dataflow verdict with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRow<'a> {
    /// The IPC method.
    pub ipc: &'a IpcMethod,
    /// Derived verdict.
    pub verdict: LeakVerdict,
    /// Allocation sites backing the verdict.
    pub sites: Vec<SiteSummary>,
    /// Whether a signature-level permission gates the method (sifted by
    /// the permission filter regardless of the verdict).
    pub signature_gated: bool,
}

impl VerdictRow<'_> {
    /// Whether every retained site of a [`LeakVerdict::BoundedRetention`]
    /// verdict was *proven* bounded by a branch predicate — each
    /// retaining site sits behind a `BOUND_CHECKED` admission. Such rows
    /// are capped by construction, so a path-sensitive report can drop
    /// them from the predicted-leak set instead of counting them as
    /// findings.
    pub fn proven_bounded(&self) -> bool {
        if self.verdict != LeakVerdict::BoundedRetention {
            return false;
        }
        let retained: Vec<&SiteSummary> = self
            .sites
            .iter()
            .filter(|s| s.fate != Retention::Released)
            .collect();
        !retained.is_empty()
            && retained
                .iter()
                .all(|s| s.preds.contains(PredSet::BOUND_CHECKED))
    }
}

/// Output of the dataflow-backed detector. Every row borrows its
/// [`IpcMethod`] from the slice the detector was given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowOutput<'a> {
    /// Legacy-shaped risky/sifted split, for the pipeline.
    pub detector: DetectorOutput<'a>,
    /// Per-IPC-method verdict rows (diagnostics input).
    pub verdicts: Vec<VerdictRow<'a>>,
    /// Solver statistics.
    pub stats: SolverStats,
}

/// Step-3 detector backed by the dataflow leak-check pass.
///
/// # Example
///
/// ```
/// use jgre_analysis::{DataflowDetector, IpcMethodExtractor, JgrEntryExtractor};
/// use jgre_corpus::{spec::AospSpec, CodeModel};
///
/// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
/// let ipc = IpcMethodExtractor::new(&model).extract();
/// let entries = JgrEntryExtractor::new(&model).extract();
/// let output = DataflowDetector::new(&model, &entries).detect(&ipc);
/// assert_eq!(output.detector.risky.len(), 63);
/// ```
#[derive(Debug)]
pub struct DataflowDetector<'m> {
    model: &'m CodeModel,
    entries: &'m JgrEntrySets,
}

impl<'m> DataflowDetector<'m> {
    /// Wraps the model and the step-2 output.
    pub fn new(model: &'m CodeModel, entries: &'m JgrEntrySets) -> Self {
        Self { model, entries }
    }

    /// Classifies every IPC method from dataflow verdicts.
    pub fn detect<'a>(&self, ipc_methods: &'a [IpcMethod]) -> DataflowOutput<'a> {
        self.detect_with(ipc_methods, &AnalysisOptions::default())
    }

    /// [`DataflowDetector::detect`] with [`AnalysisOptions`]; verdicts
    /// are structurally identical cached and uncached.
    pub fn detect_with<'a>(
        &self,
        ipc_methods: &'a [IpcMethod],
        options: &AnalysisOptions,
    ) -> DataflowOutput<'a> {
        let analysis = LeakChecker::new(self.model)
            .with_entries(self.entries)
            .analyze_with(options);
        let mut risky = Vec::new();
        let mut sifted = Vec::new();
        let mut verdicts = Vec::with_capacity(ipc_methods.len());
        for ipc in ipc_methods {
            let Some(root) = ipc.java else {
                // Native-service entry points: bodies live in the native
                // world; none of the exploitable JNI paths start there.
                sifted.push((ipc, SiftReason::NoJgrReach));
                verdicts.push(VerdictRow {
                    ipc,
                    verdict: LeakVerdict::NoJgr,
                    sites: Vec::new(),
                    signature_gated: false,
                });
                continue;
            };
            let def = self.model.method(root);
            let summary = analysis.summary(root);
            let verdict = analysis.verdict_for_with(root, options.path_sensitive);
            let signature_gated = def
                .permission_checks
                .iter()
                .any(|p| p.level() == ProtectionLevel::Signature);
            if signature_gated {
                sifted.push((ipc, SiftReason::SignaturePermission));
            } else if let Some(reason) = verdict.sift_reason() {
                sifted.push((ipc, reason));
            } else {
                let reached_entries: Vec<MethodId> = summary
                    .sites
                    .iter()
                    .map(|s| s.method)
                    .filter(|m| self.entries.java_entries.contains(m))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                risky.push(RiskyInterface {
                    ipc,
                    reached_entries,
                    via_binder_params: !def.binder_params.is_empty(),
                    via_handler_edge: summary.saw_handler,
                });
            }
            verdicts.push(VerdictRow {
                ipc,
                verdict,
                sites: summary.sites.clone(),
                signature_gated,
            });
        }
        DataflowOutput {
            detector: DetectorOutput { risky, sifted },
            verdicts,
            stats: analysis.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IpcMethodExtractor, JgrEntryExtractor, ServiceKind};
    use jgre_corpus::spec::AospSpec;
    use jgre_corpus::ParamUsage;

    /// The corpus and its step-1/step-2 outputs, which verdict rows
    /// borrow from.
    fn inputs() -> (CodeModel, Vec<IpcMethod>, JgrEntrySets) {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        (model, ipc, entries)
    }

    #[test]
    fn verdicts_reproduce_the_static_counts() {
        let (model, ipc, entries) = inputs();
        let out = DataflowDetector::new(&model, &entries).detect(&ipc);
        let system_risky = out
            .detector
            .risky
            .iter()
            .filter(|r| r.ipc.kind == ServiceKind::SystemService)
            .count();
        assert_eq!(system_risky, 57, "54 vulnerable + 3 bounded");
        assert_eq!(out.detector.risky.len(), 63);
        // The three bounded collections get the BoundedRetention verdict.
        let bounded = out
            .verdicts
            .iter()
            .filter(|v| v.verdict == LeakVerdict::BoundedRetention)
            .count();
        assert_eq!(bounded, 3, "Table III's sound per-process limits");
    }

    #[test]
    fn every_sift_rule_is_derived() {
        let (model, ipc, entries) = inputs();
        let out = DataflowDetector::new(&model, &entries).detect(&ipc);
        let seen: BTreeSet<LeakVerdict> = out.verdicts.iter().map(|v| v.verdict).collect();
        for expected in [
            LeakVerdict::NoJgr,
            LeakVerdict::ThreadCreateRelease,
            LeakVerdict::TransientParams,
            LeakVerdict::MemberReplacement,
            LeakVerdict::BoundedRetention,
            LeakVerdict::UnboundedLeak,
        ] {
            assert!(
                seen.contains(&expected),
                "verdict {expected:?} never derived"
            );
        }
    }

    #[test]
    fn thread_peer_is_released_and_death_recipient_retained() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = LeakChecker::new(&model).analyze();
        let thread = model
            .find_method("java.lang.Thread", "nativeCreate")
            .unwrap();
        assert_eq!(
            analysis.summary(thread).retention(),
            Some(Retention::Released)
        );
        let link = model
            .find_method("android.os.Binder", "linkToDeathNative")
            .unwrap();
        assert_eq!(
            analysis.summary(link).retention(),
            Some(Retention::Unbounded)
        );
        // The retention propagates up the plumbing chain.
        let rcl = model
            .find_method("android.os.RemoteCallbackList", "register")
            .unwrap();
        assert_eq!(
            analysis.summary(rcl).retention(),
            Some(Retention::Unbounded)
        );
    }

    #[test]
    fn bounded_branch_join_yields_bounded_fate() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = LeakChecker::new(&model).analyze();
        let display = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        assert_eq!(analysis.verdict_for(display), LeakVerdict::BoundedRetention);
        let sites = &analysis.summary(display).sites;
        let param = sites
            .iter()
            .find(|s| matches!(s.site, AllocSite::BinderParam(_)))
            .expect("the callback argument is an allocation site");
        assert_eq!(param.fate, Retention::Bounded);
        assert_eq!(param.escape, Some(EscapeKind::BoundedCollection));
        assert!(
            param.preds.contains(PredSet::BOUND_CHECKED),
            "the bounded store records its admission predicate"
        );
        // The death recipient pinned by the guarded registration chain is
        // capped by the same admission bound.
        let recipient = sites
            .iter()
            .find(|s| s.site == AllocSite::DeathRecipient)
            .expect("the registration chain pins a death recipient");
        assert_eq!(recipient.fate, Retention::Bounded);
        assert_eq!(recipient.escape, Some(EscapeKind::UnboundedCollection));
        assert!(
            recipient.preds.contains(PredSet::BOUND_CHECKED),
            "callee sites inherit the call-site admission predicate"
        );
    }

    /// A model of bare methods: `(binder_params, calls)` per method, ids
    /// in order.
    fn tiny_model(methods: Vec<(Vec<ParamUsage>, Vec<u32>)>) -> CodeModel {
        CodeModel {
            classes: Vec::new(),
            methods: methods
                .into_iter()
                .enumerate()
                .map(|(i, (binder_params, calls))| MethodDef {
                    id: MethodId(i as u32),
                    class: "com.example.Cycle".to_owned(),
                    name: format!("m{i}"),
                    overrides_aidl: None,
                    calls: calls.into_iter().map(MethodId).collect(),
                    handler_posts: Vec::new(),
                    registers_service: None,
                    binder_params,
                    permission_checks: Vec::new(),
                })
                .collect(),
            native_functions: Vec::new(),
            jni_registrations: Vec::new(),
        }
    }

    #[test]
    fn self_recursive_store_is_an_unbounded_leak() {
        let model = tiny_model(vec![(vec![ParamUsage::StoredInCollection], vec![0])]);
        let analysis = LeakChecker::new(&model).analyze();
        let m = MethodId(0);
        assert_eq!(analysis.verdict_for(m), LeakVerdict::UnboundedLeak);
        let sites = &analysis.summary(m).sites;
        assert_eq!(sites.len(), 1, "the recursion adds no second copy");
        assert_eq!(sites[0].site, AllocSite::BinderParam(0));
        assert_eq!(sites[0].escape, Some(EscapeKind::UnboundedCollection));
        assert_eq!(analysis.stats.sccs, 1);
    }

    #[test]
    fn mutual_recursion_carries_the_allocating_sides_site() {
        // A (0) <-> B (1); only B allocates. A's first fold sees B's empty
        // summary: only the SCC-local fixpoint brings B's site to A.
        let model = tiny_model(vec![
            (Vec::new(), vec![1]),
            (vec![ParamUsage::StoredInCollection], vec![0]),
        ]);
        let analysis = LeakChecker::new(&model).analyze();
        let (a, b) = (MethodId(0), MethodId(1));
        let site = |m: MethodId| {
            analysis
                .summary(m)
                .sites
                .iter()
                .map(|s| (s.method, s.site, s.fate))
                .collect::<Vec<_>>()
        };
        let expected = vec![(b, AllocSite::BinderParam(0), Retention::Unbounded)];
        assert_eq!(site(a), expected);
        assert_eq!(site(b), expected);
        assert_eq!(analysis.verdict_for(a), LeakVerdict::UnboundedLeak);
        assert_eq!(analysis.stats.sccs, 1);
    }

    #[test]
    fn cycle_entered_behind_a_bound_check_is_capped() {
        // E (0) admits a callback under a per-process bound and, on the
        // under-limit path, calls into the 3-cycle X (1) -> Y (2) -> Z (3)
        // -> X, where Z stores its own argument without bound.
        let model = tiny_model(vec![
            (vec![ParamUsage::StoredInCollectionBounded], vec![1]),
            (Vec::new(), vec![2]),
            (Vec::new(), vec![3]),
            (vec![ParamUsage::StoredInCollection], vec![1]),
        ]);
        let analysis = LeakChecker::new(&model).analyze();
        let z_site = |m: u32| {
            analysis
                .summary(MethodId(m))
                .sites
                .iter()
                .find(|s| s.method == MethodId(3))
                .cloned()
                .unwrap_or_else(|| panic!("m{m} reaches Z's site"))
        };
        // Inside the cycle the site is plain unbounded...
        for m in 1..=3 {
            assert_eq!(z_site(m).fate, Retention::Unbounded, "m{m}");
        }
        // ...and the bound-checked entry caps it.
        let capped = z_site(0);
        assert_eq!(capped.fate, Retention::Bounded);
        assert_eq!(capped.escape, Some(EscapeKind::UnboundedCollection));
        assert!(capped.preds.contains(PredSet::BOUND_CHECKED));
        assert_eq!(
            analysis.verdict_for(MethodId(0)),
            LeakVerdict::BoundedRetention
        );
        assert_eq!(analysis.stats.sccs, 2);
    }

    #[test]
    fn predset_is_a_meet_semilattice_on_bits() {
        let a = PredSet::BOUND_CHECKED.with(PredSet::NULL_CHECKED);
        let b = PredSet::BOUND_CHECKED.with(PredSet::ERROR_PATH);
        assert_eq!(a.meet(b), PredSet::BOUND_CHECKED);
        assert!(a.contains(PredSet::BOUND_CHECKED));
        assert!(!a.contains(PredSet::ERROR_PATH));
        assert!(PredSet::NONE.is_empty());
        assert_eq!(PredSet::from_bits(a.bits()), Some(a));
        assert_eq!(PredSet::from_bits(0b1_0000), None, "unknown bit rejected");
        assert_eq!(a.labels(), vec!["bound-checked", "null-checked"]);
    }

    #[test]
    fn join_keeps_predicates_per_site_not_per_state() {
        // Regression for the boolean-guard era: joining an unguarded path
        // used to clear the guard for the *whole* state, muting predicates
        // on sites and callees the unguarded path never touched.
        let mut guarded = LeakState {
            path: PredSet::BOUND_CHECKED,
            ..LeakState::default()
        };
        *guarded.var_slot(0) = Some((VarState::EscapedBounded, PredSet::BOUND_CHECKED));
        guarded.call(MethodId(7), PredSet::BOUND_CHECKED);

        let mut plain = LeakState::default();
        *plain.var_slot(1) = Some((VarState::Live, PredSet::NONE));

        let changed = guarded.join(&plain);
        assert!(changed);
        // The merged *path* predicate is must-information and drops...
        assert_eq!(guarded.path, PredSet::NONE);
        // ...but the per-site and per-callee predicates survive: the
        // unguarded path never reached them.
        assert_eq!(
            guarded.var(0),
            Some((VarState::EscapedBounded, PredSet::BOUND_CHECKED))
        );
        assert_eq!(guarded.called, [(MethodId(7), PredSet::BOUND_CHECKED)]);
    }

    #[test]
    fn error_path_shapes_get_error_path_verdicts() {
        use jgre_corpus::{error_path_cases, ERROR_PATH_CLASS};
        let model = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        let analysis = LeakChecker::new(&model).analyze();
        for (class, name) in error_path_cases() {
            let id = model.find_method(class, name).unwrap();
            assert_eq!(
                analysis.verdict_for(id),
                LeakVerdict::ErrorPathLeak,
                "{name} leaks only on its error path"
            );
            let sites = &analysis.summary(id).sites;
            assert!(sites
                .iter()
                .filter(|s| s.fate == Retention::Unbounded)
                .all(|s| s.preds.contains(PredSet::ERROR_PATH)));
            // Path-insensitive reading degrades to the plain leak class.
            assert_eq!(
                analysis.verdict_for_with(id, false),
                LeakVerdict::UnboundedLeak
            );
        }
        // Controls: the null-check-gated store is a genuine unconditional
        // leak (the check does not guard the retention)...
        let null_gated = model
            .find_method(ERROR_PATH_CLASS, "addNonNullObserver")
            .unwrap();
        assert_eq!(analysis.verdict_for(null_gated), LeakVerdict::UnboundedLeak);
        let site = analysis.summary(null_gated).sites[analysis
            .summary(null_gated)
            .sites
            .iter()
            .position(|s| s.fate == Retention::Unbounded)
            .unwrap()];
        assert!(site.preds.contains(PredSet::NULL_CHECKED));
        // ...and the bounded registration stays BoundedRetention.
        let bounded = model
            .find_method(ERROR_PATH_CLASS, "boundedRegister")
            .unwrap();
        assert_eq!(analysis.verdict_for(bounded), LeakVerdict::BoundedRetention);
        // The transient control releases on every path.
        let transient = model
            .find_method(ERROR_PATH_CLASS, "transientPing")
            .unwrap();
        assert_eq!(
            analysis.verdict_for(transient),
            LeakVerdict::TransientParams
        );
    }

    #[test]
    fn error_path_fixture_does_not_disturb_the_base_verdicts() {
        let model = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let out = DataflowDetector::new(&model, &entries).detect(&ipc);
        let system_risky = out
            .detector
            .risky
            .iter()
            .filter(|r| r.ipc.kind == ServiceKind::SystemService)
            .count();
        assert_eq!(system_risky, 57, "base system-service counts unchanged");
        let error_class = out
            .verdicts
            .iter()
            .filter(|v| v.verdict == LeakVerdict::ErrorPathLeak)
            .count();
        assert!(error_class >= 3, "the fixture's JGRE004 cases surface");
    }
}
