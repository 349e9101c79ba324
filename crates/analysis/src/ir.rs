//! The method IR: one basic-block CFG per method, synthesized straight
//! from the code model's facts.
//!
//! The [`model`](jgre_corpus::model) records *facts* about each method —
//! call edges, Handler posts, and how every binder-typed parameter is
//! used. [`Cfg::synthesize_from`] expands those facts into a
//! conventional control-flow graph: numbered [`BasicBlock`]s holding flat
//! [`Stmt`] lists (JGR allocations, releases, field and local stores,
//! calls), each ended by a [`Terminator`] (a jump, a labeled two-way
//! branch, or a return). The CFG is derived, never stored, so it is
//! consistent with the fact base by construction; the dataflow solver in
//! [`dataflow`](crate::dataflow) iterates over it, and
//! [`method_fact_fingerprint`] hashes every fact the synthesis reads.
//!
//! The encoding mirrors what the real AOSP bodies do to JNI global
//! references:
//!
//! * Every binder-typed parameter arrives through `Parcel.readStrongBinder`,
//!   which creates a JGR — a [`Stmt::AllocJgr`] with an
//!   [`AllocSite::BinderParam`] site at method entry.
//! * `Thread.nativeCreate` pins the thread peer but the native side drops
//!   it when the thread exits: alloc followed by release on every path
//!   (the paper's sift rule 1 falls out of the dataflow).
//! * `Binder.linkToDeathNative` builds a `JavaDeathRecipient` that stays
//!   pinned until `unlinkToDeath` — an alloc that escapes into an
//!   unbounded native-side collection.
//! * Parameters used only locally or as read-only map keys are revoked by
//!   GC after the call — explicit releases before the return (rules 2–3).
//! * A parameter assigned to a scalar member field replaces the previous
//!   value: the old reference is released before the store (rule 4).
//! * A visible per-process bound check becomes a real branch
//!   ([`Terminator::Branch`]): the reference is stored on the under-limit
//!   path and dropped on the over-limit path. The downstream registration
//!   calls run on the under-limit path only — the limit bounds the whole
//!   registration, not just the local store.
//! * Branches carry a [`BranchKind`] label describing *what* the guarding
//!   condition tests (bound, permission, null, error). The leak analysis
//!   turns these labels into per-branch predicates on the CFG edges,
//!   which is what lets a check clear or cap individual sites instead of
//!   muting the whole method.
//! * Three error-path shapes model conditional releases: an argument
//!   validation that early-returns *before* the release runs
//!   ([`ParamUsage::ReleaseSkippedOnError`]), a release that only happens
//!   once a permission check passes ([`ParamUsage::PermissionGatedRelease`]),
//!   and an unbounded store gated behind a null check
//!   ([`ParamUsage::NullCheckGatedStore`]).
//!
//! Every branch opens its then-block before its else-block; the arms
//! that fall through meet in a join block opened after both, where the
//! method continues.

use jgre_corpus::{CodeModel, MethodDef, MethodId, ParamUsage};
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

/// Hashes the facts that determine one method's CFG and call edges:
/// class + name (the JNI-wrapper special cases key on them),
/// binder-parameter usages, direct and Handler call edges (callees by
/// [`MethodId`]: two methods may share a `(class, name)`, an id never),
/// and whether the method is a lifted JGR entry point.
///
/// [`Cfg::synthesize_from`] reads exactly these facts, so two methods
/// with equal fact fingerprints synthesize identical CFGs —
/// [`Cfg::fingerprint`] asserts that correspondence in the test suite.
pub fn method_fact_fingerprint(def: &MethodDef, jgr_entry: bool) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_u64(0x4a47_5245_4d46_5032); // "JGREMFP2": fact-recipe tag
    h.write_str(&def.class);
    h.write_str(&def.name);
    h.write_u8(u8::from(jgr_entry));
    h.write_u32(def.binder_params.len() as u32);
    for usage in &def.binder_params {
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

/// Virtual register holding a JGR inside one method.
pub type Var = u32;

/// Where a JGR allocation originates (the paper's §III-B entry points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum AllocSite {
    /// Parcel unmarshalling of the binder-typed argument at this index
    /// (the `readStrongBinder` special case of §III-C.2).
    BinderParam(usize),
    /// The `JavaDeathRecipient` pinned by `linkToDeathNative`.
    DeathRecipient,
    /// The thread peer pinned by `Thread::CreateNativeThread`.
    ThreadPeer,
    /// A direct `Parcel` strong-binder JNI wrapper call.
    ParcelStrongBinder,
}

/// What kind of member storage a reference is stored into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum FieldKind {
    /// A member collection (listener list). `bounded` is true when the
    /// store is guarded by a visible per-process bound check.
    Collection {
        /// Whether a per-process bound check guards the insertion.
        bounded: bool,
    },
    /// A read-only Map/Set key lookup — the reference is not retained.
    MapKeyReadOnly,
    /// A scalar member field — the store replaces the previous value.
    Scalar,
}

/// What the condition of a [`Terminator::Branch`] tests.
///
/// The leak analysis turns the label into per-branch predicates: the
/// *then* edge of a bound check proves the store is capped, the *else*
/// edge of a permission or error check is an error path that may skip a
/// release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum BranchKind {
    /// A visible per-process bound check; the *then* branch is under-limit.
    BoundCheck,
    /// A permission check; the *else* branch is the caller-denied error path.
    PermissionCheck,
    /// A null check; the *then* branch has a non-null argument.
    NullCheck,
    /// An argument-validation / error check; the *else* branch is the
    /// early-return error path.
    ErrorCheck,
}

/// Operand of a release: a register or the current value of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Place {
    /// A virtual register.
    Var(Var),
    /// The reference currently stored in a named member field.
    Field(&'static str),
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
        /// Field name (for witness rendering).
        field: &'static str,
        /// Storage kind — decides whether the store retains.
        kind: FieldKind,
    },
    /// `src` is stored into a local — no escape.
    StoreLocal {
        /// Register being stored.
        src: Var,
    },
    /// Call to another Java method (direct or via a Handler post).
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
    /// Two-way branch (bound / permission / null / error checks). The
    /// [`BranchKind`] label becomes per-branch predicates in the leak
    /// analysis's edge transfers.
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
/// contiguous, so [`Cfg::synthesize_from`] can refill the same
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

    /// Synthesizes the CFG of one method from its recorded facts
    /// (binder-parameter usage, call edges, Handler posts) into `self`,
    /// replacing its contents and reusing its buffers. Takes the
    /// [`MethodDef`] rather than an id so analyses can build the CFG of
    /// a method not yet inserted into a model.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_analysis::ir::{Cfg, Terminator};
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let id = model.find_method("java.lang.Thread", "nativeCreate").unwrap();
    /// let mut cfg = Cfg::default();
    /// cfg.synthesize_from(model.method(id));
    /// assert_eq!(cfg.blocks.len(), 1);
    /// assert_eq!(cfg.blocks[0].term, Terminator::Return);
    /// ```
    pub fn synthesize_from(&mut self, def: &MethodDef) {
        self.blocks.clear();
        self.stmts.clear();
        let mut cur = self.new_block();
        if self.jni_wrapper(def, cur) {
            return;
        }
        // Every binder-typed argument is unmarshalled through
        // `Parcel.readStrongBinder` before the body runs.
        for i in 0..def.binder_params.len() {
            self.push(
                cur,
                Stmt::AllocJgr {
                    dst: i as Var,
                    site: AllocSite::BinderParam(i),
                },
            );
        }
        // When the method admits callbacks under a per-process limit, the
        // whole registration path — including the downstream helper calls
        // — runs on the under-limit side of the first bound check, as the
        // real bound-checked services do.
        let mut calls_pending = true;
        for (i, usage) in def.binder_params.iter().enumerate() {
            let v = i as Var;
            match usage {
                ParamUsage::StoredInCollection => self.push(
                    cur,
                    Stmt::StoreField {
                        src: v,
                        field: "mCallbacks",
                        kind: FieldKind::Collection { bounded: false },
                    },
                ),
                ParamUsage::StoredInCollectionBounded => {
                    let arms = self.branch(cur, BranchKind::BoundCheck);
                    self.push(
                        arms.0,
                        Stmt::StoreField {
                            src: v,
                            field: "mCallbacks",
                            kind: FieldKind::Collection { bounded: true },
                        },
                    );
                    if std::mem::take(&mut calls_pending) {
                        self.push_calls(arms.0, def);
                    }
                    let drop = Stmt::ReleaseJgr { src: Place::Var(v) };
                    cur = self.join(arms, Some(drop));
                }
                ParamUsage::LocalOnly => self.push(cur, Stmt::StoreLocal { src: v }),
                ParamUsage::ReadOnlyMapKey => self.push(
                    cur,
                    Stmt::StoreField {
                        src: v,
                        field: "mClientMap",
                        kind: FieldKind::MapKeyReadOnly,
                    },
                ),
                ParamUsage::AssignedToMemberField => {
                    // Replacement: the previous field value is released
                    // before the store, so the field never pins more than
                    // one JGR.
                    self.push(
                        cur,
                        Stmt::ReleaseJgr {
                            src: Place::Field("mListener"),
                        },
                    );
                    self.push(
                        cur,
                        Stmt::StoreField {
                            src: v,
                            field: "mListener",
                            kind: FieldKind::Scalar,
                        },
                    );
                }
                ParamUsage::ReleaseSkippedOnError => {
                    // Argument validation early-returns before the
                    // transient release at the end of the body runs: the
                    // happy path (an empty then-block) is a clean
                    // transient, the error path leaks the reference.
                    let arms = self.branch(cur, BranchKind::ErrorCheck);
                    cur = self.join(arms, None);
                    self.push(cur, Stmt::StoreLocal { src: v });
                }
                ParamUsage::PermissionGatedRelease => {
                    // The release only runs once the permission check
                    // passes; a caller *without* the permission — the
                    // attacker — takes the else edge and the reference is
                    // never released.
                    let arms = self.branch(cur, BranchKind::PermissionCheck);
                    self.push(arms.0, Stmt::StoreLocal { src: v });
                    self.push(arms.0, Stmt::ReleaseJgr { src: Place::Var(v) });
                    cur = self.join(arms, None);
                }
                ParamUsage::NullCheckGatedStore => {
                    // The unbounded store is gated behind a null check.
                    // The check clears nothing: an attacker passes a
                    // non-null binder, so the retaining path is trivially
                    // reachable.
                    let arms = self.branch(cur, BranchKind::NullCheck);
                    self.push(
                        arms.0,
                        Stmt::StoreField {
                            src: v,
                            field: "mObservers",
                            kind: FieldKind::Collection { bounded: false },
                        },
                    );
                    let drop = Stmt::ReleaseJgr { src: Place::Var(v) };
                    cur = self.join(arms, Some(drop));
                }
            }
        }
        if calls_pending {
            self.push_calls(cur, def);
        }
        // Transient references (rules 2-3) are revoked by GC after the
        // call: explicit releases just before the return, in parameter
        // order. `cur` was opened ending in a return.
        for (i, usage) in def.binder_params.iter().enumerate() {
            if matches!(
                usage,
                ParamUsage::LocalOnly
                    | ParamUsage::ReadOnlyMapKey
                    | ParamUsage::ReleaseSkippedOnError
            ) {
                self.push(
                    cur,
                    Stmt::ReleaseJgr {
                        src: Place::Var(i as Var),
                    },
                );
            }
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

    /// Stable content hash of the CFG, with call edges identified by
    /// callee [`MethodId`] as in [`method_fact_fingerprint`].
    ///
    /// [`method_fact_fingerprint`] hashes the facts this CFG is
    /// synthesized from; the two agree on "did anything change" because
    /// the synthesis is deterministic. The cheaper fact hash is what the
    /// incremental engine uses per run; this one exists to cross-check
    /// that equivalence in tests.
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

    /// The hand-written bodies of the four Java JNI wrappers whose native
    /// targets reach `IndirectReferenceTable::Add` (§III-B.2), pushed
    /// into `entry`; false for every other method, whose CFG is
    /// synthesized generically from the fact base.
    fn jni_wrapper(&mut self, def: &MethodDef, entry: BlockId) -> bool {
        let stmts: &[Stmt] = match (def.class.as_str(), def.name.as_str()) {
            // The parcel wrappers hand the fresh JGR to their caller:
            // still live at return, so the reference survives the call.
            ("android.os.Parcel", "nativeReadStrongBinder" | "nativeWriteStrongBinder") => {
                &[Stmt::AllocJgr {
                    dst: 0,
                    site: AllocSite::ParcelStrongBinder,
                }]
            }
            // linkToDeathNative pins a JavaDeathRecipient until
            // unlinkToDeath or the remote's death — an unbounded
            // native-side retention.
            ("android.os.Binder", "linkToDeathNative") => &[
                Stmt::AllocJgr {
                    dst: 0,
                    site: AllocSite::DeathRecipient,
                },
                Stmt::StoreField {
                    src: 0,
                    field: "gDeathRecipients",
                    kind: FieldKind::Collection { bounded: false },
                },
            ],
            // Thread::CreateNativeThread releases the peer reference when
            // the thread exits — released on every path (sift rule 1).
            ("java.lang.Thread", "nativeCreate") => &[
                Stmt::AllocJgr {
                    dst: 0,
                    site: AllocSite::ThreadPeer,
                },
                Stmt::ReleaseJgr { src: Place::Var(0) },
            ],
            _ => return false,
        };
        for stmt in stmts {
            self.push(entry, *stmt);
        }
        true
    }

    /// Pushes `def`'s direct calls, then its Handler posts, into `block`.
    fn push_calls(&mut self, block: BlockId, def: &MethodDef) {
        for callee in &def.calls {
            let call = Stmt::Call {
                callee: *callee,
                via_handler: false,
            };
            self.push(block, call);
        }
        for callee in &def.handler_posts {
            let call = Stmt::Call {
                callee: *callee,
                via_handler: true,
            };
            self.push(block, call);
        }
    }

    /// Opens a block ending in a return, its statement run starting at
    /// the end of [`Cfg::stmts`].
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock {
            start: self.stmts.len() as u32,
            len: 0,
            term: Terminator::Return,
        });
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Ends `cur` in a `kind` branch to two new blocks, `(then, else)`,
    /// opened in that order. The then-block takes statements first.
    fn branch(&mut self, cur: BlockId, kind: BranchKind) -> (BlockId, BlockId) {
        let then_ = self.new_block();
        let else_ = self.new_block();
        self.blocks[cur.0 as usize].term = Terminator::Branch { kind, then_, else_ };
        (then_, else_)
    }

    /// Closes a [`Cfg::branch`] once its then-block is filled: the
    /// else-block takes `else_stmt` and falls through, or returns at once
    /// when it is `None`. Returns the join block both fall-through arms
    /// jump to, where the method continues.
    fn join(&mut self, (then_, else_): (BlockId, BlockId), else_stmt: Option<Stmt>) -> BlockId {
        self.blocks[else_.0 as usize].start = self.stmts.len() as u32;
        if let Some(stmt) = else_stmt {
            self.push(else_, stmt);
        }
        let join = self.new_block();
        self.blocks[then_.0 as usize].term = Terminator::Goto(join);
        if else_stmt.is_some() {
            self.blocks[else_.0 as usize].term = Terminator::Goto(join);
        }
        join
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

    fn cfg_of(def: &MethodDef) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.synthesize_from(def);
        cfg
    }

    fn model() -> CodeModel {
        CodeModel::synthesize(&AospSpec::android_6_0_1())
    }

    /// A one-parameter method with `usage` and no call edges.
    fn shape_of(usage: ParamUsage) -> Cfg {
        cfg_of(&bare_def(0, vec![usage], false))
    }

    fn bare_def(id: u32, binder_params: Vec<ParamUsage>, calls: bool) -> MethodDef {
        MethodDef {
            id: MethodId(id),
            class: "com.example.Shape".to_owned(),
            name: format!("m{id}"),
            overrides_aidl: None,
            calls: if calls {
                vec![MethodId(1), MethodId(2)]
            } else {
                Vec::new()
            },
            handler_posts: if calls { vec![MethodId(3)] } else { Vec::new() },
            registers_service: None,
            binder_params,
            permission_checks: Vec::new(),
        }
    }

    /// The entry block's branch: `(kind, then, else)`.
    fn entry_branch(cfg: &Cfg) -> (BranchKind, BlockId, BlockId) {
        match cfg.blocks[Cfg::ENTRY.0 as usize].term {
            Terminator::Branch { kind, then_, else_ } => (kind, then_, else_),
            other => panic!("entry ends in {other:?}, not a branch"),
        }
    }

    const USAGES: [ParamUsage; 8] = [
        ParamUsage::StoredInCollection,
        ParamUsage::StoredInCollectionBounded,
        ParamUsage::LocalOnly,
        ParamUsage::ReadOnlyMapKey,
        ParamUsage::AssignedToMemberField,
        ParamUsage::ReleaseSkippedOnError,
        ParamUsage::PermissionGatedRelease,
        ParamUsage::NullCheckGatedStore,
    ];

    /// Every usage alone, with and without calls and Handler posts, and
    /// the bounded-collection usage before and after every usage.
    fn synthetic_defs() -> Vec<MethodDef> {
        let mut shapes: Vec<(Vec<ParamUsage>, bool)> = Vec::new();
        for usage in USAGES {
            shapes.push((vec![usage], false));
            shapes.push((vec![usage], true));
            shapes.push((vec![ParamUsage::StoredInCollectionBounded, usage], true));
            shapes.push((vec![usage, ParamUsage::StoredInCollectionBounded], true));
        }
        shapes.push((Vec::new(), true));
        shapes
            .into_iter()
            .enumerate()
            .map(|(i, (params, calls))| bare_def(i as u32, params, calls))
            .collect()
    }

    /// [`Cfg::fingerprint`] of every method, in order, folded into one
    /// digest.
    fn cfg_digest(defs: &[MethodDef]) -> u64 {
        let mut cfg = Cfg::default();
        let mut h = StableHasher::new();
        for def in defs {
            cfg.synthesize_from(def);
            h.write_u64(cfg.fingerprint().0);
        }
        h.finish()
    }

    #[test]
    fn synthesized_cfgs_are_pinned() {
        // The digests of the CFGs the earlier nested-body lowering
        // produced: the synthesis must reproduce them block for block,
        // or every summary, cache key and golden would move.
        let spec = AospSpec::android_6_0_1();
        let base = CodeModel::synthesize(&spec);
        assert_eq!(cfg_digest(&base.methods), 0x8d22_74dd_b106_7155);
        let errs = CodeModel::synthesize_with_error_paths(&spec);
        assert_eq!(cfg_digest(&errs.methods), 0xab6b_6358_0ab1_f34f);
        assert_eq!(cfg_digest(&synthetic_defs()), 0x26bb_4c5e_478b_6368);
    }

    #[test]
    fn thread_create_releases_on_all_paths() {
        let m = model();
        let id = m.find_method("java.lang.Thread", "nativeCreate").unwrap();
        let cfg = cfg_of(m.method(id));
        assert!(matches!(
            cfg.stmts[0],
            Stmt::AllocJgr {
                site: AllocSite::ThreadPeer,
                ..
            }
        ));
        assert!(matches!(cfg.stmts[1], Stmt::ReleaseJgr { .. }));
    }

    #[test]
    fn link_to_death_retains_into_a_collection() {
        let m = model();
        let id = m
            .find_method("android.os.Binder", "linkToDeathNative")
            .unwrap();
        let cfg = cfg_of(m.method(id));
        assert!(cfg.stmts.iter().any(|s| matches!(
            s,
            Stmt::StoreField {
                kind: FieldKind::Collection { bounded: false },
                ..
            }
        )));
        assert!(!cfg
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::ReleaseJgr { .. })));
    }

    #[test]
    fn binder_params_alloc_at_entry_and_cfgs_end_in_return() {
        let m = model();
        for def in &m.methods {
            let cfg = cfg_of(def);
            assert!(
                matches!(cfg.blocks.last().map(|b| b.term), Some(Terminator::Return)),
                "{}",
                def.name
            );
            let allocs = cfg
                .stmts
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        Stmt::AllocJgr {
                            site: AllocSite::BinderParam(_),
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(
                allocs,
                def.binder_params.len(),
                "{}.{}",
                def.class,
                def.name
            );
        }
    }

    #[test]
    fn bounded_collection_store_is_a_real_branch() {
        let m = model();
        let display = m
            .find_method("com.android.server.DisplayService", "registerCallback")
            .expect("display.registerCallback exists");
        let cfg = cfg_of(m.method(display));
        let (kind, then_, else_) = entry_branch(&cfg);
        assert_eq!(kind, BranchKind::BoundCheck);
        assert!(matches!(
            cfg.block_stmts(then_)[0],
            Stmt::StoreField {
                kind: FieldKind::Collection { bounded: true },
                ..
            }
        ));
        assert!(matches!(cfg.block_stmts(else_)[0], Stmt::ReleaseJgr { .. }));
    }

    #[test]
    fn release_skipped_on_error_early_returns_before_the_release() {
        let cfg = shape_of(ParamUsage::ReleaseSkippedOnError);
        let (kind, then_, else_) = entry_branch(&cfg);
        assert_eq!(kind, BranchKind::ErrorCheck);
        assert!(
            cfg.block_stmts(then_).is_empty(),
            "happy path falls through"
        );
        assert!(cfg.block_stmts(else_).is_empty());
        assert_eq!(cfg.blocks[else_.0 as usize].term, Terminator::Return);
        // The transient release exists but sits *after* the early return,
        // in the join block only the happy path reaches.
        let Terminator::Goto(join) = cfg.blocks[then_.0 as usize].term else {
            panic!("the happy path jumps to the join block");
        };
        assert!(cfg
            .block_stmts(join)
            .iter()
            .any(|s| matches!(s, Stmt::ReleaseJgr { .. })));
    }

    #[test]
    fn permission_gated_release_leaks_on_the_denied_path() {
        let cfg = shape_of(ParamUsage::PermissionGatedRelease);
        let (kind, then_, else_) = entry_branch(&cfg);
        assert_eq!(kind, BranchKind::PermissionCheck);
        assert!(cfg
            .block_stmts(then_)
            .iter()
            .any(|s| matches!(s, Stmt::ReleaseJgr { .. })));
        assert!(cfg.block_stmts(else_).is_empty());
        assert_eq!(cfg.blocks[else_.0 as usize].term, Terminator::Return);
    }

    #[test]
    fn null_check_gated_store_retains_on_the_non_null_path() {
        let cfg = shape_of(ParamUsage::NullCheckGatedStore);
        let (kind, then_, else_) = entry_branch(&cfg);
        assert_eq!(kind, BranchKind::NullCheck);
        assert!(matches!(
            cfg.block_stmts(then_)[0],
            Stmt::StoreField {
                kind: FieldKind::Collection { bounded: false },
                ..
            }
        ));
        assert!(matches!(cfg.block_stmts(else_)[0], Stmt::ReleaseJgr { .. }));
    }

    #[test]
    fn handler_posts_become_handler_calls() {
        let m = model();
        let with_post = m
            .methods
            .iter()
            .find(|d| !d.handler_posts.is_empty())
            .expect("some method posts to a Handler");
        let cfg = cfg_of(with_post);
        assert!(cfg.stmts.iter().any(|s| matches!(
            s,
            Stmt::Call {
                via_handler: true,
                ..
            }
        )));
    }

    #[test]
    fn bound_check_synthesizes_a_diamond() {
        let model = model();
        let display = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        let cfg = cfg_of(model.method(display));
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
        let a = model();
        let b = model();
        for (da, db) in a.methods.iter().zip(&b.methods) {
            assert_eq!(
                method_fact_fingerprint(da, false),
                method_fact_fingerprint(db, false),
            );
            assert_eq!(cfg_of(da).fingerprint(), cfg_of(db).fingerprint());
        }
    }

    #[test]
    fn fact_fingerprint_tracks_cfg_fingerprint() {
        // Equal fact hashes must imply equal IR hashes (soundness of using
        // the cheap fact hash as the cache key), and the mutations the
        // differential suite applies must move both.
        let model = model();
        let mut mutated = model.clone();
        let target = mutated
            .methods
            .iter()
            .position(|d| !d.binder_params.is_empty())
            .expect("some method has binder params");
        mutated.methods[target].binder_params[0] = ParamUsage::StoredInCollection;
        mutated.methods[target]
            .binder_params
            .push(ParamUsage::LocalOnly);
        for (old, new) in model.methods.iter().zip(&mutated.methods) {
            let facts_equal =
                method_fact_fingerprint(old, false) == method_fact_fingerprint(new, false);
            let ir_equal = cfg_of(old).fingerprint() == cfg_of(new).fingerprint();
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
        let model = model();
        let def = &model.methods[0];
        assert_ne!(
            method_fact_fingerprint(def, false),
            method_fact_fingerprint(def, true),
        );
    }

    #[test]
    fn batch_fingerprints_match_the_single_method_recipe() {
        let model = model();
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
    fn error_path_shapes_synthesize_labeled_branches_and_two_exits() {
        let model = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        let id = model
            .find_method(jgre_corpus::ERROR_PATH_CLASS, "registerOnError")
            .unwrap();
        let cfg = cfg_of(model.method(id));
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
        let cfg = shape_of(ParamUsage::NullCheckGatedStore);
        let mut relabeled = cfg.clone();
        let Terminator::Branch { kind, .. } = &mut relabeled.blocks[0].term else {
            panic!("the null check is the entry block's branch");
        };
        *kind = BranchKind::ErrorCheck;
        assert_ne!(cfg.fingerprint(), relabeled.fingerprint());
    }

    #[test]
    fn every_corpus_method_synthesizes_and_terminates() {
        let model = model();
        for def in &model.methods {
            let cfg = cfg_of(def);
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
