//! Generic forward dataflow framework: join-semilattice states, a
//! worklist fixpoint solver over the [`Cfg`] IR, and the call-graph SCC
//! condensation that orders interprocedural bottom-up summary
//! computation (recursive cliques are iterated to their own fixpoint).

use std::collections::{BTreeMap, VecDeque};

use jgre_corpus::{CodeModel, MethodId};

use crate::ir::{BlockId, Cfg, Stmt, Terminator};

/// A join-semilattice value: `join` merges another state in and reports
/// whether anything changed (the solver's convergence signal).
pub trait JoinSemiLattice: Clone + Eq {
    /// Merge `other` into `self`; returns true when `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// A forward gen/kill-style analysis over the IR.
pub trait ForwardAnalysis {
    /// Per-program-point abstract state.
    type State: JoinSemiLattice;

    /// State on entry to the function.
    fn boundary(&self) -> Self::State;

    /// Apply one statement's effect to `state`.
    fn transfer(&self, stmt: &Stmt, state: &mut Self::State);

    /// Apply the effect of taking the `succ_index`-th out-edge of a block
    /// ending in `term`. This is where branch predicates are picked up:
    /// a path-sensitive analysis refines the state differently along the
    /// then- and else-edges of a labeled branch. The default is a no-op,
    /// which recovers plain edge-insensitive propagation.
    fn transfer_edge(&self, _term: &Terminator, _succ_index: usize, _state: &mut Self::State) {}
}

/// Fixpoint solution: per-block entry/exit states (`None` = unreachable).
#[derive(Debug, Clone)]
pub struct Solution<S> {
    /// State at each block's entry.
    pub entry: Vec<Option<S>>,
    /// State at each block's exit.
    pub exit: Vec<Option<S>>,
    /// Number of block transfers executed before convergence.
    pub iterations: u64,
}

/// Runs the worklist algorithm to a fixpoint.
///
/// Blocks are seeded in reverse postorder so acyclic CFGs converge in a
/// single pass; back edges re-enqueue their targets until states
/// stabilize. Termination follows from the finite lattice height and the
/// monotone `join`.
pub fn solve_forward<A: ForwardAnalysis>(cfg: &Cfg, analysis: &A) -> Solution<A::State> {
    let n = cfg.blocks.len();
    let mut entry: Vec<Option<A::State>> = vec![None; n];
    let mut exit: Vec<Option<A::State>> = vec![None; n];
    entry[Cfg::ENTRY.0 as usize] = Some(analysis.boundary());

    let mut worklist: VecDeque<BlockId> = cfg.reverse_postorder().into();
    let mut queued = vec![false; n];
    for b in &worklist {
        queued[b.0 as usize] = true;
    }

    let mut iterations = 0u64;
    while let Some(b) = worklist.pop_front() {
        queued[b.0 as usize] = false;
        let Some(state_in) = entry[b.0 as usize].clone() else {
            continue; // not yet reached
        };
        iterations += 1;
        let mut state = state_in;
        for stmt in &cfg.blocks[b.0 as usize].stmts {
            analysis.transfer(stmt, &mut state);
        }
        let changed = match &mut exit[b.0 as usize] {
            Some(old) if *old == state => false,
            slot => {
                *slot = Some(state.clone());
                true
            }
        };
        if !changed {
            continue;
        }
        let term = cfg.blocks[b.0 as usize].term;
        for (succ_index, succ) in cfg.successors(b).into_iter().enumerate() {
            let s = succ.0 as usize;
            // Each out-edge gets its own copy of the exit state so the
            // edge transfer (branch predicates) refines one successor
            // without contaminating its sibling.
            let mut edge_state = state.clone();
            analysis.transfer_edge(&term, succ_index, &mut edge_state);
            let succ_changed = match &mut entry[s] {
                None => {
                    entry[s] = Some(edge_state);
                    true
                }
                Some(old) => old.join(&edge_state),
            };
            if succ_changed && !queued[s] {
                queued[s] = true;
                worklist.push_back(succ);
            }
        }
    }
    Solution {
        entry,
        exit,
        iterations,
    }
}

/// Strongly connected components of the Java call graph (direct calls
/// plus Handler posts), in callee-before-caller order — the order a
/// bottom-up summary computation consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    /// SCCs in reverse-topological (callee-first) order.
    pub sccs: Vec<Vec<MethodId>>,
}

/// Tarjan's algorithm (iterative), emitting SCCs callee-first.
pub fn condense_call_graph(model: &CodeModel) -> Condensation {
    condense_within(model, &vec![true; model.methods.len()])
}

/// [`condense_call_graph`] over only the methods `member` marks; edges
/// to other methods are ignored. When the marked set is closed under
/// callers, its SCCs are exactly the whole graph's SCCs that touch it.
pub(crate) fn condense_within(model: &CodeModel, member: &[bool]) -> Condensation {
    if !member.contains(&true) {
        return Condensation { sccs: Vec::new() };
    }
    let n = model.methods.len();
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();

    // Explicit DFS frames: (node, edge cursor).
    let edges = |v: usize| -> Vec<usize> {
        let def = &model.methods[v];
        def.calls
            .iter()
            .chain(def.handler_posts.iter())
            .map(|m| m.0 as usize)
            .filter(|&w| member[w])
            .collect()
    };

    for root in 0..n {
        if !member[root] || index[root].is_some() {
            continue;
        }
        let mut frames: Vec<(usize, Vec<usize>, usize)> = vec![(root, edges(root), 0)];
        index[root] = Some(next_index);
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some((v, succs, cursor)) = frames.last_mut() {
            if let Some(&w) = succs.get(*cursor) {
                *cursor += 1;
                if index[w].is_none() {
                    index[w] = Some(next_index);
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, edges(w), 0));
                } else if on_stack[w] {
                    let v = *v;
                    lowlink[v] = lowlink[v].min(index[w].expect("indexed"));
                }
            } else {
                let v = *v;
                if lowlink[v] == index[v].expect("indexed") {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds the SCC");
                        on_stack[w] = false;
                        scc.push(MethodId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    scc.sort();
                    sccs.push(scc);
                }
                frames.pop();
                if let Some((parent, _, _)) = frames.last() {
                    let parent = *parent;
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
            }
        }
    }
    Condensation { sccs }
}

impl Condensation {
    /// Map from method to the index of its SCC in [`Condensation::sccs`].
    pub fn scc_of(&self) -> BTreeMap<MethodId, usize> {
        let mut map = BTreeMap::new();
        for (i, scc) in self.sccs.iter().enumerate() {
            for m in scc {
                map.insert(*m, i);
            }
        }
        map
    }

    /// Dense method-indexed variant of [`Condensation::scc_of`];
    /// `usize::MAX` for methods outside the condensation.
    pub fn scc_index(&self, method_count: usize) -> Vec<usize> {
        let mut index = vec![usize::MAX; method_count];
        for (i, scc) in self.sccs.iter().enumerate() {
            for m in scc {
                index[m.0 as usize] = i;
            }
        }
        index
    }

    /// Groups SCCs into reverse-topological *waves*: level 0 holds SCCs
    /// with no external callees, level `k` holds SCCs whose deepest
    /// external callee sits at level `k-1`. All SCCs within one wave are
    /// mutually independent, so a bottom-up summary computation can
    /// process each wave in parallel with one barrier per level. Callees
    /// outside the condensation (the finished callees of a cone) do not
    /// count.
    pub fn levels(&self, model: &CodeModel) -> Vec<Vec<usize>> {
        let scc_index = self.scc_index(model.methods.len());
        let mut level = vec![0usize; self.sccs.len()];
        let mut max_level = 0;
        for (i, scc) in self.sccs.iter().enumerate() {
            let mut l = 0;
            for m in scc {
                let def = model.method(*m);
                for callee in def.calls.iter().chain(def.handler_posts.iter()) {
                    let j = scc_index[callee.0 as usize];
                    // Callee-first order guarantees j's level is final.
                    if j != i && j != usize::MAX {
                        l = l.max(level[j] + 1);
                    }
                }
            }
            level[i] = l;
            max_level = max_level.max(l);
        }
        let mut waves = vec![Vec::new(); max_level + 1];
        for (i, l) in level.iter().enumerate() {
            waves[*l].push(i);
        }
        waves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_corpus::spec::AospSpec;

    #[test]
    fn condensation_is_callee_first() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let cond = condense_call_graph(&model);
        let total: usize = cond.sccs.iter().map(Vec::len).sum();
        assert_eq!(
            total,
            model.methods.len(),
            "every method in exactly one SCC"
        );
        // Callee-first: every call edge goes from a later SCC to an
        // earlier (or the same) one.
        let scc_of = cond.scc_of();
        for def in &model.methods {
            for callee in def.calls.iter().chain(def.handler_posts.iter()) {
                assert!(
                    scc_of[callee] <= scc_of[&def.id],
                    "{}.{} calls ahead of its SCC",
                    def.class,
                    def.name
                );
            }
        }
    }

    #[test]
    fn recursion_forms_one_scc() {
        // A tiny two-method cycle must condense into a single SCC.
        use jgre_corpus::{MethodDef, MethodId};
        let model = CodeModel {
            classes: Vec::new(),
            methods: vec![
                MethodDef {
                    id: MethodId(0),
                    class: "A".into(),
                    name: "f".into(),
                    overrides_aidl: None,
                    calls: vec![MethodId(1)],
                    handler_posts: Vec::new(),
                    registers_service: None,
                    binder_params: Vec::new(),
                    permission_checks: Vec::new(),
                },
                MethodDef {
                    id: MethodId(1),
                    class: "A".into(),
                    name: "g".into(),
                    overrides_aidl: None,
                    calls: vec![MethodId(0)],
                    handler_posts: Vec::new(),
                    registers_service: None,
                    binder_params: Vec::new(),
                    permission_checks: Vec::new(),
                },
            ],
            native_functions: Vec::new(),
            jni_registrations: Vec::new(),
        };
        let cond = condense_call_graph(&model);
        assert_eq!(cond.sccs.len(), 1);
        assert_eq!(cond.sccs[0], vec![MethodId(0), MethodId(1)]);
    }
}
