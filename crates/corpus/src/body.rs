//! Per-method body synthesis: the structured statement AST the dataflow
//! analysis consumes.
//!
//! The [`model`](crate::model) records *facts* about each method — call
//! edges, Handler posts, and how every binder-typed parameter is used.
//! This module expands those facts, on demand, into a small structured
//! body per method ([`MethodBody`]): JGR allocations, releases, field
//! stores, local stores, calls, bound-check branches, and returns. Bodies
//! are derived (never stored), so they are consistent with the fact base
//! by construction and the serialized model is unchanged.
//!
//! The encoding mirrors what the real AOSP bodies do to JNI global
//! references:
//!
//! * Every binder-typed parameter arrives through `Parcel.readStrongBinder`,
//!   which creates a JGR — an [`BodyStmt::AllocJgr`] with an
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
//!   ([`BodyStmt::If`]): the reference is stored on the under-limit path
//!   and dropped on the over-limit path. The downstream registration
//!   calls run on the under-limit path only — the limit bounds the whole
//!   registration, not just the local store.
//! * Branches carry a [`BranchKind`] label describing *what* the guarding
//!   condition tests (bound, permission, null, error). The analysis lowers
//!   these labels onto CFG edges as per-branch predicates, which is what
//!   lets a check clear or cap individual sites instead of muting the
//!   whole method.
//! * Three error-path shapes model conditional releases: an argument
//!   validation that early-returns *before* the release runs
//!   ([`ParamUsage::ReleaseSkippedOnError`]), a release that only happens
//!   once a permission check passes ([`ParamUsage::PermissionGatedRelease`]),
//!   and an unbounded store gated behind a null check
//!   ([`ParamUsage::NullCheckGatedStore`]).

use serde::Serialize;

use crate::model::{CodeModel, MethodDef, MethodId, ParamUsage};

/// Virtual register holding a JGR inside one method body.
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

/// What the condition of a [`BodyStmt::If`] tests.
///
/// The label rides through CFG lowering onto the branch edges, where the
/// leak analysis turns it into per-branch predicates: the *then* edge of a
/// bound check proves the store is capped, the *else* edge of a permission
/// or error check is an error path that may skip a release.
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

/// One statement of the structured body AST.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum BodyStmt {
    /// A JGR is created and bound to `dst`.
    AllocJgr {
        /// Register receiving the new reference.
        dst: Var,
        /// Provenance of the allocation.
        site: AllocSite,
    },
    /// The reference held by `src` is deleted (or revoked by GC).
    ReleaseJgr {
        /// What is released.
        src: Place,
    },
    /// `src` is stored into a member field.
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
    /// A call to another Java method (direct or via a Handler post).
    Call {
        /// Callee.
        callee: MethodId,
        /// Whether the edge is a `Message`/`Handler` post.
        via_handler: bool,
    },
    /// A two-way branch (bound / permission / null / error checks).
    If {
        /// What the condition tests — lowered onto the CFG branch edges.
        kind: BranchKind,
        /// Statements on the check-passed path.
        then_branch: Vec<BodyStmt>,
        /// Statements on the check-failed path.
        else_branch: Vec<BodyStmt>,
    },
    /// Method exit.
    Return,
}

/// A synthesized method body.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MethodBody {
    /// Top-level statement sequence, ending in [`BodyStmt::Return`].
    pub stmts: Vec<BodyStmt>,
}

impl CodeModel {
    /// Synthesizes the structured body of a method from its recorded
    /// facts (binder-parameter usage, call edges, Handler posts).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are only minted by this model).
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let link = model.find_method("android.os.Binder", "linkToDeathNative").unwrap();
    /// let body = model.method_body(link);
    /// assert!(!body.stmts.is_empty());
    /// ```
    pub fn method_body(&self, id: MethodId) -> MethodBody {
        synthesize_body(self.method(id))
    }

    /// [`CodeModel::method_body`] into a caller-owned buffer, which is
    /// cleared first: a pass over every method reuses one body.
    pub fn method_body_into(&self, id: MethodId, body: &mut MethodBody) {
        synthesize_body_into(self.method(id), body);
    }
}

/// Synthesizes the body of one method definition. Exposed separately so
/// analyses can derive bodies for methods not yet inserted into a model.
pub fn synthesize_body(def: &MethodDef) -> MethodBody {
    let mut body = MethodBody::default();
    synthesize_body_into(def, &mut body);
    body
}

/// [`synthesize_body`] into a caller-owned buffer, which is cleared
/// first. Only branch arms allocate; a straight-line body reuses the
/// buffer's capacity.
fn synthesize_body_into(def: &MethodDef, body: &mut MethodBody) {
    let stmts = &mut body.stmts;
    stmts.clear();
    if jni_wrapper_body(def, stmts) {
        return;
    }
    // Every binder-typed argument is unmarshalled through
    // `Parcel.readStrongBinder` before the body runs.
    for i in 0..def.binder_params.len() {
        stmts.push(BodyStmt::AllocJgr {
            dst: i as Var,
            site: AllocSite::BinderParam(i),
        });
    }
    // Index (into `stmts`) of the first bound-check branch: when the
    // method admits callbacks under a per-process limit, the whole
    // registration path — including the downstream helper calls — runs
    // on the under-limit branch, as the real bound-checked services do.
    let mut bounded_branch: Option<usize> = None;
    for (i, usage) in def.binder_params.iter().enumerate() {
        let v = i as Var;
        match usage {
            ParamUsage::StoredInCollection => stmts.push(BodyStmt::StoreField {
                src: v,
                field: "mCallbacks",
                kind: FieldKind::Collection { bounded: false },
            }),
            ParamUsage::StoredInCollectionBounded => {
                bounded_branch.get_or_insert(stmts.len());
                stmts.push(BodyStmt::If {
                    kind: BranchKind::BoundCheck,
                    then_branch: vec![BodyStmt::StoreField {
                        src: v,
                        field: "mCallbacks",
                        kind: FieldKind::Collection { bounded: true },
                    }],
                    else_branch: vec![BodyStmt::ReleaseJgr { src: Place::Var(v) }],
                });
            }
            ParamUsage::LocalOnly => stmts.push(BodyStmt::StoreLocal { src: v }),
            ParamUsage::ReadOnlyMapKey => stmts.push(BodyStmt::StoreField {
                src: v,
                field: "mClientMap",
                kind: FieldKind::MapKeyReadOnly,
            }),
            ParamUsage::AssignedToMemberField => {
                // Replacement: the previous field value is released before
                // the store, so the field never pins more than one JGR.
                stmts.push(BodyStmt::ReleaseJgr {
                    src: Place::Field("mListener"),
                });
                stmts.push(BodyStmt::StoreField {
                    src: v,
                    field: "mListener",
                    kind: FieldKind::Scalar,
                });
            }
            ParamUsage::ReleaseSkippedOnError => {
                // Argument validation early-returns before the transient
                // release at the end of the body runs: the happy path is a
                // clean transient, the error path leaks the reference.
                stmts.push(BodyStmt::If {
                    kind: BranchKind::ErrorCheck,
                    then_branch: vec![],
                    else_branch: vec![BodyStmt::Return],
                });
                stmts.push(BodyStmt::StoreLocal { src: v });
            }
            ParamUsage::PermissionGatedRelease => {
                // The release only runs once the permission check passes;
                // a caller *without* the permission — the attacker — takes
                // the else edge and the reference is never released.
                stmts.push(BodyStmt::If {
                    kind: BranchKind::PermissionCheck,
                    then_branch: vec![
                        BodyStmt::StoreLocal { src: v },
                        BodyStmt::ReleaseJgr { src: Place::Var(v) },
                    ],
                    else_branch: vec![BodyStmt::Return],
                });
            }
            ParamUsage::NullCheckGatedStore => {
                // The unbounded store is gated behind a null check. The
                // check clears nothing: an attacker passes a non-null
                // binder, so the retaining path is trivially reachable.
                stmts.push(BodyStmt::If {
                    kind: BranchKind::NullCheck,
                    then_branch: vec![BodyStmt::StoreField {
                        src: v,
                        field: "mObservers",
                        kind: FieldKind::Collection { bounded: false },
                    }],
                    else_branch: vec![BodyStmt::ReleaseJgr { src: Place::Var(v) }],
                });
            }
        }
    }
    let calls = def
        .calls
        .iter()
        .map(|callee| BodyStmt::Call {
            callee: *callee,
            via_handler: false,
        })
        .chain(def.handler_posts.iter().map(|callee| BodyStmt::Call {
            callee: *callee,
            via_handler: true,
        }));
    match bounded_branch {
        Some(i) => {
            let BodyStmt::If { then_branch, .. } = &mut stmts[i] else {
                unreachable!("bounded_branch indexes an If");
            };
            then_branch.extend(calls);
        }
        None => stmts.extend(calls),
    }
    // Transient references (rules 2-3) are revoked by GC after the call:
    // explicit releases just before the return, in parameter order.
    for (i, usage) in def.binder_params.iter().enumerate() {
        if matches!(
            usage,
            ParamUsage::LocalOnly | ParamUsage::ReadOnlyMapKey | ParamUsage::ReleaseSkippedOnError
        ) {
            stmts.push(BodyStmt::ReleaseJgr {
                src: Place::Var(i as Var),
            });
        }
    }
    stmts.push(BodyStmt::Return);
}

/// Hand-written bodies for the four Java JNI wrappers whose native
/// targets reach `IndirectReferenceTable::Add` (§III-B.2), appended to
/// `stmts`; false for every other method, whose body is synthesized
/// generically from the fact base.
fn jni_wrapper_body(def: &MethodDef, stmts: &mut Vec<BodyStmt>) -> bool {
    match (def.class.as_str(), def.name.as_str()) {
        // The parcel wrappers hand the fresh JGR to their caller: still
        // live at return, so the reference survives the call.
        ("android.os.Parcel", "nativeReadStrongBinder" | "nativeWriteStrongBinder") => {
            stmts.extend([
                BodyStmt::AllocJgr {
                    dst: 0,
                    site: AllocSite::ParcelStrongBinder,
                },
                BodyStmt::Return,
            ]);
        }
        // linkToDeathNative pins a JavaDeathRecipient until unlinkToDeath
        // or the remote's death — an unbounded native-side retention.
        ("android.os.Binder", "linkToDeathNative") => stmts.extend([
            BodyStmt::AllocJgr {
                dst: 0,
                site: AllocSite::DeathRecipient,
            },
            BodyStmt::StoreField {
                src: 0,
                field: "gDeathRecipients",
                kind: FieldKind::Collection { bounded: false },
            },
            BodyStmt::Return,
        ]),
        // Thread::CreateNativeThread releases the peer reference when the
        // thread exits — released on every path (sift rule 1).
        ("java.lang.Thread", "nativeCreate") => stmts.extend([
            BodyStmt::AllocJgr {
                dst: 0,
                site: AllocSite::ThreadPeer,
            },
            BodyStmt::ReleaseJgr { src: Place::Var(0) },
            BodyStmt::Return,
        ]),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AospSpec;

    fn model() -> CodeModel {
        CodeModel::synthesize(&AospSpec::android_6_0_1())
    }

    #[test]
    fn thread_create_releases_on_all_paths() {
        let m = model();
        let id = m.find_method("java.lang.Thread", "nativeCreate").unwrap();
        let body = m.method_body(id);
        assert!(matches!(
            body.stmts[0],
            BodyStmt::AllocJgr {
                site: AllocSite::ThreadPeer,
                ..
            }
        ));
        assert!(matches!(body.stmts[1], BodyStmt::ReleaseJgr { .. }));
    }

    #[test]
    fn link_to_death_retains_into_a_collection() {
        let m = model();
        let id = m
            .find_method("android.os.Binder", "linkToDeathNative")
            .unwrap();
        let body = m.method_body(id);
        assert!(body.stmts.iter().any(|s| matches!(
            s,
            BodyStmt::StoreField {
                kind: FieldKind::Collection { bounded: false },
                ..
            }
        )));
        assert!(!body
            .stmts
            .iter()
            .any(|s| matches!(s, BodyStmt::ReleaseJgr { .. })));
    }

    #[test]
    fn binder_params_alloc_at_entry_and_bodies_end_in_return() {
        let m = model();
        for def in &m.methods {
            let body = synthesize_body(def);
            assert!(
                matches!(body.stmts.last(), Some(BodyStmt::Return)),
                "{}",
                def.name
            );
            let allocs = body
                .stmts
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        BodyStmt::AllocJgr {
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
        let body = m.method_body(display);
        let branch = body
            .stmts
            .iter()
            .find_map(|s| match s {
                BodyStmt::If {
                    kind,
                    then_branch,
                    else_branch,
                } => Some((kind, then_branch, else_branch)),
                _ => None,
            })
            .expect("bounded store lowers to a branch");
        assert_eq!(*branch.0, BranchKind::BoundCheck);
        assert!(matches!(
            branch.1[0],
            BodyStmt::StoreField {
                kind: FieldKind::Collection { bounded: true },
                ..
            }
        ));
        assert!(matches!(branch.2[0], BodyStmt::ReleaseJgr { .. }));
    }

    fn shape_of(usage: ParamUsage) -> MethodBody {
        let def = MethodDef {
            id: MethodId(0),
            class: "com.example.Shape".to_owned(),
            name: "m".to_owned(),
            overrides_aidl: None,
            calls: Vec::new(),
            handler_posts: Vec::new(),
            registers_service: None,
            binder_params: vec![usage],
            permission_checks: Vec::new(),
        };
        synthesize_body(&def)
    }

    #[test]
    fn release_skipped_on_error_early_returns_before_the_release() {
        let body = shape_of(ParamUsage::ReleaseSkippedOnError);
        let BodyStmt::If {
            kind,
            then_branch,
            else_branch,
        } = &body.stmts[1]
        else {
            panic!("error check lowers to a branch, got {:?}", body.stmts[1]);
        };
        assert_eq!(*kind, BranchKind::ErrorCheck);
        assert!(then_branch.is_empty(), "happy path falls through");
        assert_eq!(else_branch.as_slice(), &[BodyStmt::Return]);
        // The transient release exists but sits *after* the early return.
        assert!(body.stmts[2..]
            .iter()
            .any(|s| matches!(s, BodyStmt::ReleaseJgr { .. })));
    }

    #[test]
    fn permission_gated_release_leaks_on_the_denied_path() {
        let body = shape_of(ParamUsage::PermissionGatedRelease);
        let BodyStmt::If {
            kind,
            then_branch,
            else_branch,
        } = &body.stmts[1]
        else {
            panic!("permission check lowers to a branch");
        };
        assert_eq!(*kind, BranchKind::PermissionCheck);
        assert!(then_branch
            .iter()
            .any(|s| matches!(s, BodyStmt::ReleaseJgr { .. })));
        assert_eq!(else_branch.as_slice(), &[BodyStmt::Return]);
    }

    #[test]
    fn null_check_gated_store_retains_on_the_non_null_path() {
        let body = shape_of(ParamUsage::NullCheckGatedStore);
        let BodyStmt::If {
            kind,
            then_branch,
            else_branch,
        } = &body.stmts[1]
        else {
            panic!("null check lowers to a branch");
        };
        assert_eq!(*kind, BranchKind::NullCheck);
        assert!(matches!(
            then_branch[0],
            BodyStmt::StoreField {
                kind: FieldKind::Collection { bounded: false },
                ..
            }
        ));
        assert!(matches!(else_branch[0], BodyStmt::ReleaseJgr { .. }));
    }

    #[test]
    fn handler_posts_become_handler_calls() {
        let m = model();
        let with_post = m
            .methods
            .iter()
            .find(|d| !d.handler_posts.is_empty())
            .expect("some method posts to a Handler");
        let body = synthesize_body(with_post);
        assert!(body.stmts.iter().any(|s| matches!(
            s,
            BodyStmt::Call {
                via_handler: true,
                ..
            }
        )));
    }
}
