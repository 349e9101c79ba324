//! Generic forward dataflow framework: join-semilattice states, a
//! worklist fixpoint solver over the [`Cfg`] IR, and the call-graph SCC
//! condensation that orders interprocedural bottom-up summary
//! computation (recursive cliques are iterated to their own fixpoint).

use std::collections::VecDeque;

use jgre_corpus::{CodeModel, MethodDef, MethodId};

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

/// The forward worklist solver with its buffers: per-block states,
/// reverse postorder and worklist, grown to the largest CFG solved. One
/// solver serves any number of CFGs; every buffer is cleared, not
/// dropped, between them, and states are copied with `clone_from`, so a
/// state type whose `clone_from` reuses its storage solves method after
/// method without allocating.
#[derive(Debug)]
pub struct Solver<S> {
    /// Entry state per block, valid where `reached`.
    entry: Vec<S>,
    /// Exit state per block, valid where `solved`.
    exit: Vec<S>,
    reached: Vec<bool>,
    solved: Vec<bool>,
    queued: Vec<bool>,
    worklist: VecDeque<BlockId>,
    order: Vec<BlockId>,
    marks: Vec<u8>,
    stack: Vec<BlockId>,
    /// The block being transferred, then the edge being taken.
    state: Option<S>,
    edge: Option<S>,
}

impl<S> Default for Solver<S> {
    fn default() -> Self {
        Self {
            entry: Vec::new(),
            exit: Vec::new(),
            reached: Vec::new(),
            solved: Vec::new(),
            queued: Vec::new(),
            worklist: VecDeque::new(),
            order: Vec::new(),
            marks: Vec::new(),
            stack: Vec::new(),
            state: None,
            edge: None,
        }
    }
}

impl<S: JoinSemiLattice> Solver<S> {
    /// Solves `cfg` to a fixpoint and returns the number of block
    /// transfers executed.
    ///
    /// Blocks are seeded in reverse postorder so acyclic CFGs converge in
    /// a single pass; back edges re-enqueue their targets until states
    /// stabilize. Termination follows from the finite lattice height and
    /// the monotone `join`.
    pub fn solve<A: ForwardAnalysis<State = S>>(&mut self, cfg: &Cfg, analysis: &A) -> u64 {
        let n = cfg.blocks.len();
        let Self {
            entry,
            exit,
            reached,
            solved,
            queued,
            worklist,
            order,
            marks,
            stack,
            state,
            edge,
        } = self;
        while entry.len() < n {
            entry.push(analysis.boundary());
            exit.push(analysis.boundary());
        }
        for flags in [&mut *reached, &mut *solved, &mut *queued] {
            flags.clear();
            flags.resize(n, false);
        }
        entry[Cfg::ENTRY.0 as usize].clone_from(&analysis.boundary());
        reached[Cfg::ENTRY.0 as usize] = true;

        cfg.reverse_postorder_into(marks, stack, order);
        worklist.clear();
        worklist.extend(order.iter().copied());
        for b in order.iter() {
            queued[b.0 as usize] = true;
        }
        let state = state.get_or_insert_with(|| analysis.boundary());
        let edge = edge.get_or_insert_with(|| analysis.boundary());

        let mut iterations = 0u64;
        while let Some(b) = worklist.pop_front() {
            let bi = b.0 as usize;
            queued[bi] = false;
            if !reached[bi] {
                continue; // not yet reached
            }
            iterations += 1;
            state.clone_from(&entry[bi]);
            for stmt in cfg.block_stmts(b) {
                analysis.transfer(stmt, state);
            }
            if solved[bi] && exit[bi] == *state {
                continue;
            }
            exit[bi].clone_from(state);
            solved[bi] = true;
            let term = cfg.blocks[bi].term;
            for (succ_index, succ) in term.successors().enumerate() {
                let s = succ.0 as usize;
                // Each out-edge gets its own copy of the exit state so the
                // edge transfer (branch predicates) refines one successor
                // without contaminating its sibling.
                edge.clone_from(state);
                analysis.transfer_edge(&term, succ_index, edge);
                let succ_changed = if reached[s] {
                    entry[s].join(edge)
                } else {
                    entry[s].clone_from(edge);
                    reached[s] = true;
                    true
                };
                if succ_changed && !queued[s] {
                    queued[s] = true;
                    worklist.push_back(succ);
                }
            }
        }
        iterations
    }

    /// The last solve's state at block `b`'s exit; `None` when `b` was
    /// unreachable.
    pub fn exit(&self, b: BlockId) -> Option<&S> {
        let b = b.0 as usize;
        self.solved
            .get(b)
            .copied()
            .unwrap_or(false)
            .then(|| &self.exit[b])
    }
}

/// Strongly connected components of the Java call graph (direct calls
/// plus Handler posts), in callee-before-caller order — the order a
/// bottom-up summary computation consumes.
///
/// The SCCs share one buffer: SCC `i` is `members[bounds[i]..bounds[i +
/// 1]]`, sorted by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    members: Vec<MethodId>,
    bounds: Vec<u32>,
}

/// Tarjan's algorithm (iterative), emitting SCCs callee-first.
pub fn condense_call_graph(model: &CodeModel) -> Condensation {
    condense_within(model, &vec![true; model.methods.len()])
}

/// The `k`-th out-edge of `def` in the call graph: its direct calls,
/// then its Handler posts.
fn edge(def: &MethodDef, k: usize) -> Option<MethodId> {
    match def.calls.get(k) {
        Some(callee) => Some(*callee),
        None => def.handler_posts.get(k - def.calls.len()).copied(),
    }
}

/// [`condense_call_graph`] over only the methods `member` marks; edges
/// to other methods are ignored. When the marked set is closed under
/// callers, its SCCs are exactly the whole graph's SCCs that touch it.
pub(crate) fn condense_within(model: &CodeModel, member: &[bool]) -> Condensation {
    let marked = member.iter().filter(|m| **m).count();
    let mut cond = Condensation {
        members: Vec::with_capacity(marked),
        bounds: Vec::with_capacity(marked + 1),
    };
    cond.bounds.push(0);
    if marked == 0 {
        return cond;
    }
    const UNVISITED: u32 = u32::MAX;
    let n = model.methods.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    // Explicit DFS frames: (node, cursor over its out-edges).
    let mut frames: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;

    for root in 0..n {
        if !member[root] || index[root] != UNVISITED {
            continue;
        }
        let mut visit = Some(root);
        loop {
            if let Some(v) = visit.take() {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v as u32);
                on_stack[v] = true;
                frames.push((v as u32, 0));
            }
            let Some((v, cursor)) = frames.last_mut() else {
                break;
            };
            let v = *v as usize;
            if let Some(w) = edge(&model.methods[v], *cursor as usize) {
                *cursor += 1;
                let w = w.0 as usize;
                if !member[w] {
                    continue;
                }
                if index[w] == UNVISITED {
                    visit = Some(w);
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                if lowlink[v] == index[v] {
                    let start = cond.members.len();
                    loop {
                        let w = stack.pop().expect("stack holds the SCC");
                        on_stack[w as usize] = false;
                        cond.members.push(MethodId(w));
                        if w as usize == v {
                            break;
                        }
                    }
                    cond.members[start..].sort_unstable();
                    cond.bounds.push(cond.members.len() as u32);
                }
                frames.pop();
                if let Some((parent, _)) = frames.last() {
                    let parent = *parent as usize;
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
            }
        }
    }
    cond
}

impl Condensation {
    /// Number of SCCs.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether there are no SCCs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The members of SCC `i`, sorted by id.
    pub fn scc(&self, i: usize) -> &[MethodId] {
        &self.members[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// Every SCC, callee-first.
    pub fn sccs(&self) -> impl Iterator<Item = &[MethodId]> {
        self.bounds
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// Map from method to the index of its SCC; `usize::MAX` for methods
    /// outside the condensation.
    pub fn scc_index(&self, method_count: usize) -> Vec<usize> {
        let mut index = vec![usize::MAX; method_count];
        for (i, scc) in self.sccs().enumerate() {
            for m in scc {
                index[m.0 as usize] = i;
            }
        }
        index
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
        let total: usize = cond.sccs().map(<[MethodId]>::len).sum();
        assert_eq!(
            total,
            model.methods.len(),
            "every method in exactly one SCC"
        );
        // Callee-first: every call edge goes from a later SCC to an
        // earlier (or the same) one.
        let scc_of = cond.scc_index(model.methods.len());
        for def in &model.methods {
            for callee in def.calls.iter().chain(def.handler_posts.iter()) {
                assert!(
                    scc_of[callee.0 as usize] <= scc_of[def.id.0 as usize],
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
        assert_eq!(cond.len(), 1);
        assert_eq!(cond.scc(0), [MethodId(0), MethodId(1)]);
    }
}
