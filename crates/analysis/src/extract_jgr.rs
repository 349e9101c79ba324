//! Step 2: the JGR entry extractor (§III-B).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};

use jgre_corpus::{CodeModel, MethodId, NativeFunctionId};
use serde::Serialize;

use crate::NameIndex;

/// Result of the native call-graph walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NativePathAnalysis {
    /// All simple paths from any root to `IndirectReferenceTable::Add`
    /// (the paper finds 147).
    pub total_paths: usize,
    /// Paths only reachable during runtime initialisation, filtered out
    /// (the paper's 67 — `WellKnownClasses::CacheClass` etc.).
    pub init_only_paths: usize,
    /// Exploitable paths: reachable from registered JNI entry points.
    pub exploitable_paths: usize,
    /// JNI entry points with at least one exploitable path.
    pub jgr_jni_natives: BTreeSet<NativeFunctionId>,
}

/// Java-side JGR entries derived from the native analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JgrEntrySets {
    /// Native analysis summary.
    pub native: NativePathAnalysis,
    /// Java methods whose registered native function reaches `Add` —
    /// the set the detector searches call graphs for.
    pub java_entries: BTreeSet<MethodId>,
    /// The paper's critical named mappings, as `(java, native)` pairs,
    /// e.g. `("android.os.Binder.linkToDeathNative",
    /// "JavaDeathRecipient::JavaDeathRecipient")`.
    pub named_mappings: Vec<(String, String)>,
    /// The Java JGR entry that sift rule 1 exempts
    /// (`java.lang.Thread.nativeCreate`).
    pub thread_native_create: Option<MethodId>,
    /// The two parcel entries handled out-of-band by the detector
    /// (`nativeReadStrongBinder` / `nativeWriteStrongBinder`).
    pub parcel_entries: BTreeSet<MethodId>,
}

/// Walks the native world and lifts JGR entries to Java.
///
/// # Example
///
/// ```
/// use jgre_analysis::JgrEntryExtractor;
/// use jgre_corpus::{spec::AospSpec, CodeModel};
///
/// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
/// let entries = JgrEntryExtractor::new(&model).extract();
/// assert_eq!(entries.native.total_paths, 147);
/// assert_eq!(entries.native.exploitable_paths, 80);
/// ```
#[derive(Debug)]
pub struct JgrEntryExtractor<'m> {
    model: &'m CodeModel,
}

impl<'m> JgrEntryExtractor<'m> {
    /// Wraps a code model.
    pub fn new(model: &'m CodeModel) -> Self {
        Self { model }
    }

    /// Runs the extraction.
    pub fn extract(&self) -> JgrEntrySets {
        let native = self.analyze_native_paths();
        let names = NameIndex::new(self.model);
        let mut java_entries = BTreeSet::new();
        let mut named_mappings = Vec::new();
        let mut thread_native_create = None;
        let mut parcel_entries = BTreeSet::new();
        for reg in &self.model.jni_registrations {
            if !native.jgr_jni_natives.contains(&reg.native) {
                continue;
            }
            let Some(mid) = names.find_method(&reg.java_class, &reg.java_method) else {
                // Generated JNI libraries have no Java-side MethodDef; they
                // are JGR entries no framework code calls.
                continue;
            };
            java_entries.insert(mid);
            named_mappings.push((
                format!("{}.{}", reg.java_class, reg.java_method),
                self.model.native(reg.native).name.clone(),
            ));
            if reg.java_class == "java.lang.Thread" && reg.java_method == "nativeCreate" {
                thread_native_create = Some(mid);
            }
            if reg.java_class == "android.os.Parcel" {
                parcel_entries.insert(mid);
            }
        }
        JgrEntrySets {
            native,
            java_entries,
            named_mappings,
            thread_native_create,
            parcel_entries,
        }
    }

    /// Counts simple paths from each root to the `Add` sink. The native
    /// graph is a DAG, so a dynamic program over path counts suffices
    /// (this is the static call-graph analysis the paper does with
    /// Doxygen output).
    fn analyze_native_paths(&self) -> NativePathAnalysis {
        let n = self.model.native_functions.len();
        let mut memo: BTreeMap<usize, u64> = BTreeMap::new();
        fn count_paths(
            model: &CodeModel,
            idx: usize,
            memo: &mut BTreeMap<usize, u64>,
            visiting: &mut Vec<bool>,
        ) -> u64 {
            if model.native_functions[idx].is_irt_add {
                return 1;
            }
            if let Some(&c) = memo.get(&idx) {
                return c;
            }
            if visiting[idx] {
                return 0; // cycle guard: simple paths only
            }
            visiting[idx] = true;
            let mut total = 0;
            for callee in &model.native_functions[idx].calls {
                total += count_paths(model, callee.0 as usize, memo, visiting);
            }
            visiting[idx] = false;
            memo.insert(idx, total);
            total
        }

        let mut visiting = vec![false; n];
        let mut total_paths = 0usize;
        let mut init_only_paths = 0usize;
        let mut exploitable_paths = 0usize;
        let mut jgr_jni_natives = BTreeSet::new();
        for (idx, f) in self.model.native_functions.iter().enumerate() {
            let is_root = f.is_jni_entry || f.init_only_root;
            if !is_root {
                continue;
            }
            let c = count_paths(self.model, idx, &mut memo, &mut visiting) as usize;
            if c == 0 {
                continue;
            }
            total_paths += c;
            if f.init_only_root {
                init_only_paths += c;
            } else {
                exploitable_paths += c;
                jgr_jni_natives.insert(f.id);
            }
        }
        NativePathAnalysis {
            total_paths,
            init_only_paths,
            exploitable_paths,
            jgr_jni_natives,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use jgre_corpus::spec::AospSpec;

    fn entries() -> JgrEntrySets {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        JgrEntryExtractor::new(&model).extract()
    }

    #[test]
    fn path_counts_match_the_paper() {
        let e = entries();
        assert_eq!(e.native.total_paths, 147, "147 native paths");
        assert_eq!(e.native.init_only_paths, 67, "67 init-only, filtered");
        assert_eq!(e.native.exploitable_paths, 80);
    }

    #[test]
    fn named_java_mappings_recovered() {
        let e = entries();
        let mappings: std::collections::BTreeSet<&str> =
            e.named_mappings.iter().map(|(j, _)| j.as_str()).collect();
        assert!(mappings.contains("android.os.Parcel.nativeReadStrongBinder"));
        assert!(mappings.contains("android.os.Parcel.nativeWriteStrongBinder"));
        assert!(mappings.contains("android.os.Binder.linkToDeathNative"));
        assert!(mappings.contains("java.lang.Thread.nativeCreate"));
        assert!(e.thread_native_create.is_some());
        assert_eq!(e.parcel_entries.len(), 2);
    }

    #[test]
    fn init_roots_contribute_no_java_entries() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let e = JgrEntryExtractor::new(&model).extract();
        for nid in &e.native.jgr_jni_natives {
            assert!(!model.native(*nid).init_only_root);
        }
    }
}
