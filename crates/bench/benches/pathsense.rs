//! T-PATHSENSE: the cost of the per-branch predicate lattice. The
//! intraprocedural solver is timed against a bench-local boolean-guard
//! baseline — the pre-predicate era's state shape — over the amplified
//! corpus (same body synthesis, lowering, solver and state storage, each
//! reused from method to method on both sides). The acceptance bar from
//! DESIGN.md §10 is predicate lattice < 2x the boolean solver.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use jgre_analysis::dataflow::JoinSemiLattice;
use jgre_analysis::{intra_solver_cost, BlockId, Cfg, ForwardAnalysis, Solver, Stmt};
use jgre_bench::{artifacts_enabled, write_artifact};
use jgre_corpus::body::{FieldKind, MethodBody, Place, Var};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId};
use serde::Serialize;

/// Replicates every method `copies` times with suffixed class names and
/// offset call ids — the same amplification as the incremental bench, so
/// both solver benchmarks report over the same ~15k-method corpus.
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

/// The boolean-era abstract state: one `guard` bit where the production
/// lattice tracks a `PredSet` per path and per site. Var states are the
/// production ordering collapsed to a rank byte. The storage is the
/// production state's (registers indexed densely, sorted small sets, a
/// buffer-reusing `clone_from`), so the two solvers differ only in the
/// lattice they carry.
#[derive(Debug, Default, PartialEq, Eq)]
struct BoolState {
    vars: Vec<Option<(u8, bool)>>,
    cleared: Vec<&'static str>,
    key_use: Vec<Var>,
    called: Vec<(MethodId, bool)>,
    guard: bool,
    handler: bool,
}

impl Clone for BoolState {
    fn clone(&self) -> Self {
        let mut out = BoolState::default();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, source: &Self) {
        self.vars.clone_from(&source.vars);
        self.cleared.clone_from(&source.cleared);
        self.key_use.clone_from(&source.key_use);
        self.called.clone_from(&source.called);
        self.guard = source.guard;
        self.handler = source.handler;
    }
}

impl BoolState {
    fn var_slot(&mut self, v: Var) -> &mut Option<(u8, bool)> {
        let i = v as usize;
        if self.vars.len() <= i {
            self.vars.resize(i + 1, None);
        }
        &mut self.vars[i]
    }

    /// Records a call to `callee` under `guard`; true when that changed
    /// anything.
    fn call(&mut self, callee: MethodId, guard: bool) -> bool {
        match self.called.binary_search_by_key(&callee, |(c, _)| *c) {
            Ok(i) => {
                let cur = &mut self.called[i].1;
                let changed = *cur && !guard;
                *cur &= guard;
                changed
            }
            Err(i) => {
                self.called.insert(i, (callee, guard));
                true
            }
        }
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

impl JoinSemiLattice for BoolState {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        if self.vars.len() < other.vars.len() {
            self.vars.resize(other.vars.len(), None);
        }
        for (slot, theirs) in self.vars.iter_mut().zip(&other.vars) {
            let Some((state, guard)) = *theirs else {
                continue;
            };
            match slot {
                None => {
                    *slot = Some((state, guard));
                    changed = true;
                }
                Some(cur) => {
                    if state > cur.0 {
                        *cur = (state, guard);
                        changed = true;
                    } else if state == cur.0 && cur.1 && !guard {
                        cur.1 = false;
                        changed = true;
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
        for (callee, guard) in &other.called {
            changed |= self.call(*callee, *guard);
        }
        if self.guard && !other.guard {
            self.guard = false;
            changed = true;
        }
        if other.handler && !self.handler {
            self.handler = true;
            changed = true;
        }
        changed
    }
}

// Rank bytes mirroring the production VarState order.
const RELEASED: u8 = 0;
const LIVE: u8 = 1;
const ESCAPED_SCALAR: u8 = 2;
const ESCAPED_BOUNDED: u8 = 3;
const ESCAPED_UNBOUNDED: u8 = 4;

struct BoolAnalysis;

impl ForwardAnalysis for BoolAnalysis {
    type State = BoolState;

    fn boundary(&self) -> BoolState {
        BoolState::default()
    }

    fn transfer(&self, stmt: &Stmt, state: &mut BoolState) {
        let escalate = |state: &mut BoolState, v: Var, to: u8| {
            let guard = state.guard;
            let entry = state.var_slot(v).get_or_insert((LIVE, guard));
            if to > entry.0 {
                *entry = (to, guard);
            } else if to == entry.0 {
                entry.1 &= guard;
            }
        };
        match stmt {
            Stmt::AllocJgr { dst, .. } => {
                let guard = state.guard;
                *state.var_slot(*dst) = Some((LIVE, guard));
            }
            Stmt::ReleaseJgr { src: Place::Var(v) } => {
                let guard = state.guard;
                *state.var_slot(*v) = Some((RELEASED, guard));
            }
            Stmt::ReleaseJgr {
                src: Place::Field(f),
            } => {
                insert_sorted(&mut state.cleared, *f);
            }
            Stmt::StoreField { src, field, kind } => match kind {
                FieldKind::Collection { bounded: false } => {
                    escalate(state, *src, ESCAPED_UNBOUNDED);
                }
                FieldKind::Collection { bounded: true } => {
                    escalate(state, *src, ESCAPED_BOUNDED);
                    state.guard = true;
                }
                FieldKind::MapKeyReadOnly => {
                    insert_sorted(&mut state.key_use, *src);
                }
                FieldKind::Scalar => {
                    let replaced = match state.cleared.binary_search(field) {
                        Ok(i) => {
                            state.cleared.remove(i);
                            true
                        }
                        Err(_) => false,
                    };
                    let to = if replaced {
                        ESCAPED_SCALAR
                    } else {
                        ESCAPED_UNBOUNDED
                    };
                    escalate(state, *src, to);
                }
            },
            Stmt::StoreLocal { .. } => {}
            Stmt::Call {
                callee,
                via_handler,
            } => {
                let guard = state.guard;
                state.call(*callee, guard);
                state.handler |= *via_handler;
            }
        }
    }
    // No transfer_edge: the boolean era was edge-insensitive.
}

/// Lowers and solves every body with the boolean baseline through one
/// reused body, CFG and solver, as [`intra_solver_cost`] does with the
/// production lattice; returns the total reachable-block count as a
/// cheap checksum to defeat DCE.
fn bool_solver_cost(model: &CodeModel) -> u64 {
    let mut body = MethodBody::default();
    let mut cfg = Cfg::default();
    let mut solver = Solver::default();
    let mut reached = 0u64;
    for def in &model.methods {
        model.method_body_into(def.id, &mut body);
        cfg.lower_from(&body);
        solver.solve(&cfg, &BoolAnalysis);
        reached += (0..cfg.blocks.len() as u32)
            .filter(|&b| solver.exit(BlockId(b)).is_some())
            .count() as u64;
    }
    reached
}

fn min_time_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[derive(Debug, Serialize)]
struct PathsenseArtifact {
    methods: usize,
    predicate_ms: f64,
    boolean_ms: f64,
    overhead: f64,
}

fn bench_pathsense(c: &mut Criterion) {
    let base = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
    let model = amplify(&base, 4);

    let mut group = c.benchmark_group("pathsense");
    group.sample_size(10);
    group.bench_function("predicate_lattice", |b| {
        b.iter(|| intra_solver_cost(black_box(&model)));
    });
    group.bench_function("boolean_guard_baseline", |b| {
        b.iter(|| bool_solver_cost(black_box(&model)));
    });
    group.finish();

    let predicate_ms = min_time_ms(3, || {
        black_box(intra_solver_cost(&model));
    });
    let boolean_ms = min_time_ms(3, || {
        black_box(bool_solver_cost(&model));
    });
    let artifact = PathsenseArtifact {
        methods: model.methods.len(),
        predicate_ms,
        boolean_ms,
        overhead: predicate_ms / boolean_ms,
    };
    let rendered = format!(
        "path-sensitive solver cost ({} methods)\n\
         predicate lattice: {predicate_ms:>8.3} ms\n\
         boolean baseline:  {boolean_ms:>8.3} ms\n\
         overhead:          {:>8.2}x\n",
        artifact.methods, artifact.overhead
    );
    println!("{rendered}");
    assert!(
        artifact.overhead < 2.0,
        "predicate lattice must stay under 2x the boolean solver, got {:.2}x",
        artifact.overhead
    );
    if artifacts_enabled() {
        write_artifact("pathsense_overhead", &artifact, &rendered);
    }
}

criterion_group!(benches, bench_pathsense);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
