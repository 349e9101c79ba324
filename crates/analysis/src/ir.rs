//! Basic-block CFG IR: the lowering target for synthesized method bodies.
//!
//! The corpus's structured [`MethodBody`] AST (straight-line statements
//! plus `If` branches) is lowered into a conventional control-flow graph:
//! numbered [`BasicBlock`]s holding flat [`Stmt`] lists, each ended by a
//! [`Terminator`]. The dataflow solver in [`dataflow`](crate::dataflow)
//! iterates over this representation.

use jgre_corpus::body::{AllocSite, BodyStmt, BranchKind, FieldKind, MethodBody, Place, Var};
use jgre_corpus::{CodeModel, MethodDef, MethodId};
use jgre_sim::record::StableHasher;
use serde::Serialize;

/// A stable 64-bit content hash of one method's analysis-relevant facts.
///
/// Fingerprints are the cache keys of the incremental summary engine:
/// they must be identical across processes, platforms, and map iteration
/// orders, so they are computed with the record codec's explicitly
/// specified [`StableHasher`] rather than `std::hash` (whose output is
/// not guaranteed stable between runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Fingerprint(pub u64);

/// Hashes the facts that determine one method's synthesized body and
/// call edges: class + name (the JNI-wrapper special cases key on them),
/// binder-parameter usages, direct and Handler call edges (callees by
/// [`MethodId`]: two methods may share a `(class, name)`, an id never),
/// and whether the method is a lifted JGR entry point.
///
/// Bodies are derived on demand from exactly these facts
/// (`jgre_corpus::body`), so two methods with equal fact fingerprints
/// lower to identical CFG IR — [`Cfg::fingerprint`] asserts that
/// correspondence in the test suite.
pub fn method_fact_fingerprint(def: &MethodDef, jgr_entry: bool) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_u64(0x4a47_5245_4d46_5032); // "JGREMFP2": fact-recipe tag
    h.write_str(&def.class);
    h.write_str(&def.name);
    h.write_u8(u8::from(jgr_entry));
    h.write_u32(def.binder_params.len() as u32);
    for usage in &def.binder_params {
        use jgre_corpus::ParamUsage;
        h.write_u8(match usage {
            ParamUsage::StoredInCollection => 0,
            ParamUsage::StoredInCollectionBounded => 1,
            ParamUsage::LocalOnly => 2,
            ParamUsage::ReadOnlyMapKey => 3,
            ParamUsage::AssignedToMemberField => 4,
            ParamUsage::ReleaseSkippedOnError => 5,
            ParamUsage::PermissionGatedRelease => 6,
            ParamUsage::NullCheckGatedStore => 7,
        });
    }
    for (edges, tag) in [(&def.calls, 0u8), (&def.handler_posts, 1u8)] {
        h.write_u32(edges.len() as u32);
        for callee in edges {
            h.write_u32(callee.0);
            h.write_u8(tag);
        }
    }
    Fingerprint(h.finish())
}

/// Batch form of [`method_fact_fingerprint`] for the whole corpus;
/// `is_jgr_entry[i]` flags method `i` as a lifted JGR entry point.
pub fn method_fact_fingerprints(model: &CodeModel, is_jgr_entry: &[bool]) -> Vec<u64> {
    model
        .methods
        .iter()
        .map(|def| {
            let jgr = is_jgr_entry
                .get(def.id.0 as usize)
                .copied()
                .unwrap_or(false);
            method_fact_fingerprint(def, jgr).0
        })
        .collect()
}

/// Combines all per-method fact fingerprints (in [`MethodId`] order) into
/// one corpus-level fingerprint — the key of the whole-corpus fast path
/// in the summary cache.
pub fn corpus_fingerprint(fingerprints: &[u64]) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_u64(0x4a47_5245_4350_5331); // "JGRECPS1": corpus-recipe tag
    h.write_u32(fingerprints.len() as u32);
    for fp in fingerprints {
        h.write_u64(*fp);
    }
    Fingerprint(h.finish())
}

/// Index of a block in [`Cfg::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct BlockId(pub u32);

/// One flat IR statement (branches live in the [`Terminator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Stmt {
    /// A JGR is created and bound to `dst`.
    AllocJgr {
        /// Register receiving the reference.
        dst: Var,
        /// Provenance of the allocation.
        site: AllocSite,
    },
    /// The reference held by `src` is deleted (or revoked by GC).
    ReleaseJgr {
        /// What is released.
        src: Place,
    },
    /// `src` escapes into a member field.
    StoreField {
        /// Register being stored.
        src: Var,
        /// Field name.
        field: &'static str,
        /// Storage kind.
        kind: FieldKind,
    },
    /// `src` is stored into a local — no escape.
    StoreLocal {
        /// Register being stored.
        src: Var,
    },
    /// Call to another Java method.
    Call {
        /// Callee.
        callee: MethodId,
        /// Whether the edge is a `Message`/`Handler` post.
        via_handler: bool,
    },
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch. `kind` is the predicate label lowered from the
    /// body's [`BranchKind`]: edge transfers in the leak analysis turn it
    /// into per-branch predicates (bound/permission/null/error).
    Branch {
        /// What the condition tests.
        kind: BranchKind,
        /// Check-passed successor.
        then_: BlockId,
        /// Check-failed successor.
        else_: BlockId,
    },
    /// Method exit.
    Return,
}

impl Terminator {
    /// Successor blocks, the then-edge first (the order edge transfers
    /// number them in).
    pub fn successors(self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match self {
            Terminator::Goto(t) => (Some(t), None),
            Terminator::Branch { then_, else_, .. } => (Some(then_), Some(else_)),
            Terminator::Return => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// One basic block: a run of [`Cfg::stmts`] and its terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BasicBlock {
    /// Index of the block's first statement in [`Cfg::stmts`].
    pub start: u32,
    /// Number of straight-line statements.
    pub len: u32,
    /// Block terminator.
    pub term: Terminator,
}

/// A per-method control-flow graph. Block 0 is the entry.
///
/// The statements of all blocks share one buffer, each block's run
/// contiguous, so [`Cfg::lower_from`] can re-lower into the same
/// allocations method after method.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Cfg {
    /// All blocks; [`Cfg::ENTRY`] is the function entry.
    pub blocks: Vec<BasicBlock>,
    /// Every block's statements, block runs back to back.
    pub stmts: Vec<Stmt>,
}

impl Cfg {
    /// The entry block.
    pub const ENTRY: BlockId = BlockId(0);

    /// Lowers a structured body into basic-block form.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_analysis::ir::{Cfg, Terminator};
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let id = model.find_method("java.lang.Thread", "nativeCreate").unwrap();
    /// let cfg = Cfg::lower(&model.method_body(id));
    /// assert_eq!(cfg.blocks.len(), 1);
    /// assert_eq!(cfg.blocks[0].term, Terminator::Return);
    /// ```
    pub fn lower(body: &MethodBody) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.lower_from(body);
        cfg
    }

    /// [`Cfg::lower`] into `self`, replacing its contents and reusing its
    /// buffers.
    pub fn lower_from(&mut self, body: &MethodBody) {
        self.blocks.clear();
        self.stmts.clear();
        let entry = self.new_block();
        if let Some(open) = self.lower_seq(&body.stmts, entry) {
            self.blocks[open.0 as usize].term = Terminator::Return;
        }
    }

    /// The straight-line statements of block `b`.
    pub fn block_stmts(&self, b: BlockId) -> &[Stmt] {
        let block = &self.blocks[b.0 as usize];
        &self.stmts[block.start as usize..(block.start + block.len) as usize]
    }

    /// Successor blocks of `b`, the then-edge first.
    pub fn successors(&self, b: BlockId) -> impl Iterator<Item = BlockId> {
        self.blocks[b.0 as usize].term.successors()
    }

    /// Stable content hash of the lowered IR, with call edges identified
    /// by callee [`MethodId`] as in [`method_fact_fingerprint`].
    ///
    /// [`method_fact_fingerprint`] hashes the fact base this CFG is
    /// derived from; the two agree on "did anything change" because
    /// bodies are synthesized deterministically from facts. The cheaper
    /// fact hash is what the incremental engine uses per run; this one
    /// exists to cross-check that equivalence in tests.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_u64(0x4a47_5245_4346_4732); // "JGRECFG2": IR-recipe tag
        h.write_u32(self.blocks.len() as u32);
        for (i, block) in self.blocks.iter().enumerate() {
            h.write_u32(block.len);
            for stmt in self.block_stmts(BlockId(i as u32)) {
                match stmt {
                    Stmt::AllocJgr { dst, site } => {
                        h.write_u8(0);
                        h.write_u32(*dst);
                        let (tag, idx) = match site {
                            AllocSite::BinderParam(i) => (0u8, *i as u32),
                            AllocSite::DeathRecipient => (1, 0),
                            AllocSite::ThreadPeer => (2, 0),
                            AllocSite::ParcelStrongBinder => (3, 0),
                        };
                        h.write_u8(tag);
                        h.write_u32(idx);
                    }
                    Stmt::ReleaseJgr { src } => {
                        h.write_u8(1);
                        match src {
                            Place::Var(v) => {
                                h.write_u8(0);
                                h.write_u32(*v);
                            }
                            Place::Field(f) => {
                                h.write_u8(1);
                                h.write_str(f);
                            }
                        }
                    }
                    Stmt::StoreField { src, field, kind } => {
                        h.write_u8(2);
                        h.write_u32(*src);
                        h.write_str(field);
                        h.write_u8(match kind {
                            FieldKind::Collection { bounded: false } => 0,
                            FieldKind::Collection { bounded: true } => 1,
                            FieldKind::MapKeyReadOnly => 2,
                            FieldKind::Scalar => 3,
                        });
                    }
                    Stmt::StoreLocal { src } => {
                        h.write_u8(3);
                        h.write_u32(*src);
                    }
                    Stmt::Call {
                        callee,
                        via_handler,
                    } => {
                        h.write_u8(4);
                        h.write_u32(callee.0);
                        h.write_u8(u8::from(*via_handler));
                    }
                }
            }
            match block.term {
                Terminator::Goto(t) => {
                    h.write_u8(0);
                    h.write_u32(t.0);
                }
                Terminator::Branch { kind, then_, else_ } => {
                    h.write_u8(1);
                    h.write_u8(match kind {
                        BranchKind::BoundCheck => 0,
                        BranchKind::PermissionCheck => 1,
                        BranchKind::NullCheck => 2,
                        BranchKind::ErrorCheck => 3,
                    });
                    h.write_u32(then_.0);
                    h.write_u32(else_.0);
                }
                Terminator::Return => h.write_u8(2),
            }
        }
        Fingerprint(h.finish())
    }

    /// Blocks in reverse postorder from the entry — the iteration order
    /// that lets a forward worklist converge in few passes.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut order = Vec::with_capacity(self.blocks.len());
        self.reverse_postorder_into(&mut Vec::new(), &mut Vec::new(), &mut order);
        order
    }

    /// [`Cfg::reverse_postorder`] into `order`, with `marks` and `stack`
    /// as the walk's scratch; all three are cleared first.
    pub fn reverse_postorder_into(
        &self,
        marks: &mut Vec<u8>,
        stack: &mut Vec<BlockId>,
        order: &mut Vec<BlockId>,
    ) {
        marks.clear();
        marks.resize(self.blocks.len(), 0); // 0 new, 1 open, 2 done
        stack.clear();
        stack.push(Self::ENTRY);
        order.clear();
        while let Some(&b) = stack.last() {
            match marks[b.0 as usize] {
                0 => {
                    marks[b.0 as usize] = 1;
                    for succ in self.successors(b) {
                        if marks[succ.0 as usize] == 0 {
                            stack.push(succ);
                        }
                    }
                }
                1 => {
                    marks[b.0 as usize] = 2;
                    order.push(b);
                    stack.pop();
                }
                _ => {
                    stack.pop();
                }
            }
        }
        order.reverse();
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock {
            start: self.stmts.len() as u32,
            len: 0,
            term: Terminator::Return,
        });
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Lowers a statement sequence starting in `cur`; returns the block
    /// left open at the end, or `None` when the sequence returned. A
    /// block takes statements only while it is `cur`, which keeps its
    /// run in [`Cfg::stmts`] contiguous.
    fn lower_seq(&mut self, stmts: &[BodyStmt], mut cur: BlockId) -> Option<BlockId> {
        self.blocks[cur.0 as usize].start = self.stmts.len() as u32;
        for stmt in stmts {
            match stmt {
                BodyStmt::AllocJgr { dst, site } => self.push(
                    cur,
                    Stmt::AllocJgr {
                        dst: *dst,
                        site: *site,
                    },
                ),
                BodyStmt::ReleaseJgr { src } => self.push(cur, Stmt::ReleaseJgr { src: *src }),
                BodyStmt::StoreField { src, field, kind } => self.push(
                    cur,
                    Stmt::StoreField {
                        src: *src,
                        field,
                        kind: *kind,
                    },
                ),
                BodyStmt::StoreLocal { src } => self.push(cur, Stmt::StoreLocal { src: *src }),
                BodyStmt::Call {
                    callee,
                    via_handler,
                } => self.push(
                    cur,
                    Stmt::Call {
                        callee: *callee,
                        via_handler: *via_handler,
                    },
                ),
                BodyStmt::If {
                    kind,
                    then_branch,
                    else_branch,
                } => {
                    let then_ = self.new_block();
                    let else_ = self.new_block();
                    self.blocks[cur.0 as usize].term = Terminator::Branch {
                        kind: *kind,
                        then_,
                        else_,
                    };
                    let t_end = self.lower_seq(then_branch, then_);
                    let e_end = self.lower_seq(else_branch, else_);
                    match (t_end, e_end) {
                        (None, None) => return None,
                        (t, e) => {
                            let join = self.new_block();
                            for open in [t, e].into_iter().flatten() {
                                self.blocks[open.0 as usize].term = Terminator::Goto(join);
                            }
                            cur = join;
                        }
                    }
                }
                BodyStmt::Return => {
                    self.blocks[cur.0 as usize].term = Terminator::Return;
                    return None;
                }
            }
        }
        Some(cur)
    }

    fn push(&mut self, block: BlockId, stmt: Stmt) {
        let block = &mut self.blocks[block.0 as usize];
        debug_assert_eq!(
            (block.start + block.len) as usize,
            self.stmts.len(),
            "a block's statements stay contiguous"
        );
        block.len += 1;
        self.stmts.push(stmt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_corpus::{spec::AospSpec, CodeModel};

    #[test]
    fn branch_lowering_produces_diamond() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let display = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        let cfg = Cfg::lower(&model.method_body(display));
        // entry + then + else + join = 4 blocks.
        assert_eq!(cfg.blocks.len(), 4);
        assert!(matches!(
            cfg.blocks[Cfg::ENTRY.0 as usize].term,
            Terminator::Branch { .. }
        ));
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], Cfg::ENTRY);
        assert_eq!(rpo.len(), 4, "all blocks reachable");
    }

    #[test]
    fn fingerprints_are_deterministic_across_syntheses() {
        let a = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let b = CodeModel::synthesize(&AospSpec::android_6_0_1());
        for (da, db) in a.methods.iter().zip(&b.methods) {
            assert_eq!(
                method_fact_fingerprint(da, false),
                method_fact_fingerprint(db, false),
            );
            assert_eq!(
                Cfg::lower(&a.method_body(da.id)).fingerprint(),
                Cfg::lower(&b.method_body(db.id)).fingerprint(),
            );
        }
    }

    #[test]
    fn fact_fingerprint_tracks_cfg_fingerprint() {
        // Equal fact hashes must imply equal IR hashes (soundness of using
        // the cheap fact hash as the cache key), and the mutations the
        // differential suite applies must move both.
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let mut mutated = model.clone();
        let target = mutated
            .methods
            .iter()
            .position(|d| !d.binder_params.is_empty())
            .expect("some method has binder params");
        mutated.methods[target].binder_params[0] = jgre_corpus::ParamUsage::StoredInCollection;
        mutated.methods[target]
            .binder_params
            .push(jgre_corpus::ParamUsage::LocalOnly);
        for (old, new) in model.methods.iter().zip(&mutated.methods) {
            let facts_equal =
                method_fact_fingerprint(old, false) == method_fact_fingerprint(new, false);
            let ir_equal = Cfg::lower(&model.method_body(old.id)).fingerprint()
                == Cfg::lower(&mutated.method_body(new.id)).fingerprint();
            assert_eq!(
                facts_equal, ir_equal,
                "fact hash and IR hash disagree for {}.{}",
                old.class, old.name
            );
            assert_eq!(facts_equal, old.id.0 as usize != target);
        }
    }

    #[test]
    fn entry_set_membership_is_part_of_the_fingerprint() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let def = &model.methods[0];
        assert_ne!(
            method_fact_fingerprint(def, false),
            method_fact_fingerprint(def, true),
        );
    }

    #[test]
    fn batch_fingerprints_match_the_single_method_recipe() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let mut entries = vec![false; model.methods.len()];
        entries[7] = true;
        let batch = method_fact_fingerprints(&model, &entries);
        for def in &model.methods {
            assert_eq!(
                batch[def.id.0 as usize],
                method_fact_fingerprint(def, def.id.0 == 7).0,
                "batch diverged for {}.{}",
                def.class,
                def.name
            );
        }
    }

    #[test]
    fn corpus_fingerprint_is_order_and_content_sensitive() {
        assert_ne!(corpus_fingerprint(&[1, 2]), corpus_fingerprint(&[2, 1]));
        assert_ne!(corpus_fingerprint(&[1, 2]), corpus_fingerprint(&[1, 2, 3]));
        assert_eq!(corpus_fingerprint(&[1, 2]), corpus_fingerprint(&[1, 2]));
    }

    #[test]
    fn error_path_shapes_lower_with_labeled_branches_and_two_exits() {
        let model = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        let id = model
            .find_method(jgre_corpus::ERROR_PATH_CLASS, "registerOnError")
            .unwrap();
        let cfg = Cfg::lower(&model.method_body(id));
        assert!(cfg.blocks.iter().any(|b| matches!(
            b.term,
            Terminator::Branch {
                kind: BranchKind::ErrorCheck,
                ..
            }
        )));
        // The early error return is a second, distinct exit block.
        let exits = cfg
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Return))
            .count();
        assert_eq!(exits, 2, "early return creates a second exit");
    }

    #[test]
    fn branch_kind_is_part_of_the_cfg_fingerprint() {
        let body = MethodBody {
            stmts: vec![
                BodyStmt::If {
                    kind: BranchKind::NullCheck,
                    then_branch: vec![],
                    else_branch: vec![],
                },
                BodyStmt::Return,
            ],
        };
        let mut relabeled = body.clone();
        let BodyStmt::If { kind, .. } = &mut relabeled.stmts[0] else {
            unreachable!();
        };
        *kind = BranchKind::ErrorCheck;
        assert_ne!(
            Cfg::lower(&body).fingerprint(),
            Cfg::lower(&relabeled).fingerprint(),
        );
    }

    #[test]
    fn every_corpus_body_lowers_and_terminates() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        for def in &model.methods {
            let cfg = Cfg::lower(&model.method_body(def.id));
            assert!(!cfg.blocks.is_empty());
            assert!(
                cfg.blocks
                    .iter()
                    .any(|b| matches!(b.term, Terminator::Return)),
                "{}.{} has no return block",
                def.class,
                def.name
            );
            // The RPO must visit every reachable block exactly once.
            let rpo = cfg.reverse_postorder();
            let unique: std::collections::BTreeSet<_> = rpo.iter().collect();
            assert_eq!(unique.len(), rpo.len());
        }
    }
}
