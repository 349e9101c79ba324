//! Witness provenance: every confirmed finding carries a concrete,
//! independently checkable path from the IPC entry point down to
//! `art::IndirectReferenceTable::Add`.
//!
//! A [`Witness`] is a step list built from an allocation-site summary
//! ([`SiteSummary`]); [`Witness::validate`] re-checks every step against
//! the code model (call edges, binder parameters, JNI registrations,
//! native call edges), so a witness cannot silently outlive a model
//! change.

use std::collections::{HashMap, VecDeque};

use jgre_corpus::{CodeModel, MethodId, NativeFunctionId};
use serde::Serialize;

use crate::ir::AllocSite;
use crate::leakcheck::SiteSummary;

/// The Parcel wrapper that unmarshals a binder argument — where a
/// binder-parameter JGR is actually created.
const UNMARSHAL: (&str, &str) = ("android.os.Parcel", "nativeReadStrongBinder");

/// One hop of a witness path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum WitnessStep {
    /// The attacker-reachable IPC entry point.
    IpcEntry {
        /// Implementing class.
        class: String,
        /// Method name.
        method: String,
    },
    /// A Java call edge.
    Call {
        /// Caller.
        from: MethodId,
        /// Callee.
        to: MethodId,
        /// Whether the edge is a Handler post.
        via_handler: bool,
    },
    /// A binder argument is unmarshalled inside `method` — control
    /// pivots into the Parcel wrapper.
    BinderParamUnmarshal {
        /// Method whose parameter it is.
        method: MethodId,
        /// Parameter index.
        index: usize,
    },
    /// The JNI registration crossing from Java into native code.
    JniBridge {
        /// Registered Java class.
        java_class: String,
        /// Registered Java method.
        java_method: String,
        /// Bound native function.
        native: NativeFunctionId,
    },
    /// A native call edge.
    NativeCall {
        /// Caller.
        from: NativeFunctionId,
        /// Callee.
        to: NativeFunctionId,
    },
    /// The sink: `art::IndirectReferenceTable::Add`.
    IrtAdd {
        /// The sink function.
        native: NativeFunctionId,
    },
}

/// A checkable path from an IPC entry to the JGR table insertion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Witness {
    /// Steps, entry first, sink last.
    pub steps: Vec<WitnessStep>,
}

impl Witness {
    /// Builds a witness for `site`, reached from IPC root `root`.
    ///
    /// Returns `None` when no path exists in the model — a finding
    /// without a witness is a detector bug, and callers treat it as one.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_analysis::leakcheck::LeakChecker;
    /// use jgre_analysis::witness::Witness;
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let root = model
    ///     .find_method("com.android.server.DisplayService", "registerCallback")
    ///     .unwrap();
    /// let analysis = LeakChecker::new(&model).analyze();
    /// let site = &analysis.summary(root).sites[0];
    /// let witness = Witness::build(&model, root, site).unwrap();
    /// assert!(witness.validate(&model).is_ok());
    /// ```
    pub fn build(model: &CodeModel, root: MethodId, site: &SiteSummary) -> Option<Witness> {
        let root_def = model.method(root);
        let mut steps = vec![WitnessStep::IpcEntry {
            class: root_def.class.clone(),
            method: root_def.name.clone(),
        }];
        steps.extend(java_path(model, root, site.method)?);

        let bridge = match site.site {
            AllocSite::BinderParam(index) => {
                steps.push(WitnessStep::BinderParamUnmarshal {
                    method: site.method,
                    index,
                });
                model
                    .jni_registrations
                    .iter()
                    .find(|r| r.java_class == UNMARSHAL.0 && r.java_method == UNMARSHAL.1)?
            }
            _ => {
                let def = model.method(site.method);
                model
                    .jni_registrations
                    .iter()
                    .find(|r| r.java_class == def.class && r.java_method == def.name)?
            }
        };
        steps.push(WitnessStep::JniBridge {
            java_class: bridge.java_class.clone(),
            java_method: bridge.java_method.clone(),
            native: bridge.native,
        });

        let (calls, sink) = native_path(model, bridge.native)?;
        steps.extend(calls);
        steps.push(WitnessStep::IrtAdd { native: sink });
        Some(Witness { steps })
    }

    /// Re-checks every step against the model. `Err` carries the first
    /// broken step's description.
    pub fn validate(&self, model: &CodeModel) -> Result<(), String> {
        let mut cur_java: Option<MethodId> = None;
        let mut cur_native: Option<NativeFunctionId> = None;
        let mut unmarshalled = false;
        let mut sunk = false;
        for (i, step) in self.steps.iter().enumerate() {
            let fail = |what: &str| Err(format!("step {i}: {what}"));
            match step {
                WitnessStep::IpcEntry { class, method } => {
                    if i != 0 {
                        return fail("IpcEntry not at the start");
                    }
                    match model.find_method(class, method) {
                        Some(id) => cur_java = Some(id),
                        None => return fail("entry method not in model"),
                    }
                }
                WitnessStep::Call {
                    from,
                    to,
                    via_handler,
                } => {
                    if cur_java != Some(*from) {
                        return fail("call does not start at the current method");
                    }
                    let def = model.method(*from);
                    let edges = if *via_handler {
                        &def.handler_posts
                    } else {
                        &def.calls
                    };
                    if !edges.contains(to) {
                        return fail("call edge not in model");
                    }
                    cur_java = Some(*to);
                }
                WitnessStep::BinderParamUnmarshal { method, index } => {
                    if cur_java != Some(*method) {
                        return fail("unmarshal outside the current method");
                    }
                    if *index >= model.method(*method).binder_params.len() {
                        return fail("binder parameter index out of range");
                    }
                    unmarshalled = true;
                }
                WitnessStep::JniBridge {
                    java_class,
                    java_method,
                    native,
                } => {
                    let reg = model.jni_registrations.iter().find(|r| {
                        r.java_class == *java_class
                            && r.java_method == *java_method
                            && r.native == *native
                    });
                    if reg.is_none() {
                        return fail("JNI registration not in model");
                    }
                    if !unmarshalled {
                        // A direct bridge must belong to the Java method
                        // we are currently in.
                        let Some(cur) = cur_java else {
                            return fail("bridge before any Java step");
                        };
                        let def = model.method(cur);
                        if def.class != *java_class || def.name != *java_method {
                            return fail("bridge does not match the current method");
                        }
                    }
                    cur_native = Some(*native);
                }
                WitnessStep::NativeCall { from, to } => {
                    if cur_native != Some(*from) {
                        return fail("native call does not start at the current function");
                    }
                    if !model.native(*from).calls.contains(to) {
                        return fail("native call edge not in model");
                    }
                    cur_native = Some(*to);
                }
                WitnessStep::IrtAdd { native } => {
                    if cur_native != Some(*native) {
                        return fail("sink is not the current native function");
                    }
                    if !model.native(*native).is_irt_add {
                        return fail("sink is not IndirectReferenceTable::Add");
                    }
                    sunk = true;
                }
            }
        }
        if !sunk {
            return Err("witness never reaches IndirectReferenceTable::Add".into());
        }
        Ok(())
    }

    /// Human-readable rendering, one line per step — the SARIF
    /// thread-flow text.
    pub fn render(&self, model: &CodeModel) -> Vec<String> {
        self.steps.iter().map(|step| step.render(model)).collect()
    }
}

impl WitnessStep {
    /// The step as one line of text.
    pub fn render(&self, model: &CodeModel) -> String {
        match self {
            WitnessStep::IpcEntry { class, method } => {
                format!("IPC entry {class}.{method}")
            }
            WitnessStep::Call {
                from,
                to,
                via_handler,
            } => {
                let f = model.method(*from);
                let t = model.method(*to);
                let how = if *via_handler { "posts to" } else { "calls" };
                format!("{}.{} {} {}.{}", f.class, f.name, how, t.class, t.name)
            }
            WitnessStep::BinderParamUnmarshal { method, index } => {
                let m = model.method(*method);
                format!("{}.{} unmarshals binder argument #{index}", m.class, m.name)
            }
            WitnessStep::JniBridge {
                java_class,
                java_method,
                native,
            } => format!(
                "JNI bridge {java_class}.{java_method} -> {}",
                model.native(*native).name
            ),
            WitnessStep::NativeCall { from, to } => format!(
                "{} calls {}",
                model.native(*from).name,
                model.native(*to).name
            ),
            WitnessStep::IrtAdd { native } => {
                format!("{} inserts the JGR", model.native(*native).name)
            }
        }
    }
}

/// Witnesses of one finding with their longest common step prefix
/// factored out — the minimised form SARIF `codeFlows` are emitted
/// from. Multi-site findings share the IPC entry and often most of the
/// Java call chain; repeating those steps per flow bloats reports
/// without adding information. [`MinimisedFlows::expand`] restores the
/// originals exactly, so minimisation is lossless by construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MinimisedFlows {
    /// Steps shared by every witness, in order (empty when there is no
    /// common prefix or fewer than two witnesses).
    pub prefix: Vec<WitnessStep>,
    /// Each witness's remaining steps after the shared prefix.
    pub suffixes: Vec<Vec<WitnessStep>>,
}

impl MinimisedFlows {
    /// Factors the longest common prefix out of `witnesses`.
    ///
    /// A single witness minimises to an empty prefix — there is nothing
    /// to share — and zero witnesses to an empty value.
    pub fn minimise(witnesses: &[Witness]) -> MinimisedFlows {
        if witnesses.len() < 2 {
            return MinimisedFlows {
                prefix: Vec::new(),
                suffixes: witnesses.iter().map(|w| w.steps.clone()).collect(),
            };
        }
        let first = &witnesses[0].steps;
        let mut common = first.len();
        for w in &witnesses[1..] {
            common = common.min(w.steps.len()).min(
                first
                    .iter()
                    .zip(&w.steps)
                    .take_while(|(a, b)| a == b)
                    .count(),
            );
        }
        // Never swallow a whole witness into the prefix: every flow must
        // keep at least its sink step so each suffix stands on its own.
        let shortest = witnesses.iter().map(|w| w.steps.len()).min().unwrap_or(0);
        if common == shortest && shortest > 0 {
            common = shortest - 1;
        }
        MinimisedFlows {
            prefix: first[..common].to_vec(),
            suffixes: witnesses
                .iter()
                .map(|w| w.steps[common..].to_vec())
                .collect(),
        }
    }

    /// Reconstructs the original witnesses (prefix + each suffix).
    pub fn expand(&self) -> Vec<Witness> {
        self.suffixes
            .iter()
            .map(|suffix| {
                let mut steps = self.prefix.clone();
                steps.extend(suffix.iter().cloned());
                Witness { steps }
            })
            .collect()
    }

    /// Total steps stored, prefix counted once — what the SARIF payload
    /// actually carries.
    pub fn stored_steps(&self) -> usize {
        self.prefix.len() + self.suffixes.iter().map(Vec::len).sum::<usize>()
    }
}

/// Shortest Java call path `root -> target` as witness steps (BFS over
/// direct calls and Handler posts; deterministic: edges in declaration
/// order).
fn java_path(model: &CodeModel, root: MethodId, target: MethodId) -> Option<Vec<WitnessStep>> {
    if root == target {
        return Some(Vec::new());
    }
    let mut parent: HashMap<MethodId, (MethodId, bool)> = HashMap::new();
    let mut queue = VecDeque::from([root]);
    while let Some(m) = queue.pop_front() {
        let def = model.method(m);
        let edges = def
            .calls
            .iter()
            .map(|c| (*c, false))
            .chain(def.handler_posts.iter().map(|c| (*c, true)));
        for (next, via_handler) in edges {
            if next == root || parent.contains_key(&next) {
                continue;
            }
            parent.insert(next, (m, via_handler));
            if next == target {
                let mut steps = Vec::new();
                let mut cur = target;
                while cur != root {
                    let (prev, via) = parent[&cur];
                    steps.push(WitnessStep::Call {
                        from: prev,
                        to: cur,
                        via_handler: via,
                    });
                    cur = prev;
                }
                steps.reverse();
                return Some(steps);
            }
            queue.push_back(next);
        }
    }
    None
}

/// Shortest native path from `from` to an `is_irt_add` sink.
fn native_path(
    model: &CodeModel,
    from: NativeFunctionId,
) -> Option<(Vec<WitnessStep>, NativeFunctionId)> {
    if model.native(from).is_irt_add {
        return Some((Vec::new(), from));
    }
    let mut parent: HashMap<NativeFunctionId, NativeFunctionId> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(f) = queue.pop_front() {
        for next in &model.native(f).calls {
            if *next == from || parent.contains_key(next) {
                continue;
            }
            parent.insert(*next, f);
            if model.native(*next).is_irt_add {
                let mut steps = Vec::new();
                let mut cur = *next;
                while cur != from {
                    let prev = parent[&cur];
                    steps.push(WitnessStep::NativeCall {
                        from: prev,
                        to: cur,
                    });
                    cur = prev;
                }
                steps.reverse();
                return Some((steps, *next));
            }
            queue.push_back(*next);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakcheck::LeakChecker;
    use jgre_corpus::spec::AospSpec;

    #[test]
    fn every_risky_site_has_a_valid_witness() {
        use crate::{DataflowDetector, IpcMethodExtractor, JgrEntryExtractor};
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let out = DataflowDetector::new(&model, &entries).detect(&ipc);
        let mut checked = 0usize;
        for row in &out.verdicts {
            if !row.verdict.is_risky() {
                continue;
            }
            let root = row.ipc.java.expect("risky rows have Java bodies");
            for site in &row.sites {
                let witness = Witness::build(&model, root, site).unwrap_or_else(|| {
                    panic!(
                        "{}.{}: no witness for site {:?}",
                        row.ipc.service, row.ipc.method, site.site
                    )
                });
                witness
                    .validate(&model)
                    .unwrap_or_else(|e| panic!("{}.{}: {e}", row.ipc.service, row.ipc.method));
                checked += 1;
            }
        }
        assert!(checked >= 63, "at least one site per risky interface");
    }

    #[test]
    fn validation_rejects_a_forged_edge() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let root = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        let analysis = LeakChecker::new(&model).analyze();
        let site = &analysis.summary(root).sites[0];
        let mut witness = Witness::build(&model, root, site).unwrap();
        // Corrupt the entry: claim a different class.
        if let WitnessStep::IpcEntry { class, .. } = &mut witness.steps[0] {
            *class = "com.example.Forged".into();
        }
        assert!(witness.validate(&model).is_err());
    }

    #[test]
    fn minimisation_roundtrips_and_shares_the_prefix() {
        use crate::{DataflowDetector, IpcMethodExtractor, JgrEntryExtractor};
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let out = DataflowDetector::new(&model, &entries).detect(&ipc);
        let mut multi_checked = 0usize;
        for row in &out.verdicts {
            if !row.verdict.is_risky() {
                continue;
            }
            let root = row.ipc.java.expect("risky rows have Java bodies");
            let witnesses: Vec<Witness> = row
                .sites
                .iter()
                .filter_map(|s| Witness::build(&model, root, s))
                .collect();
            let min = MinimisedFlows::minimise(&witnesses);
            // Lossless: expansion restores the originals exactly.
            assert_eq!(min.expand(), witnesses);
            let full: usize = witnesses.iter().map(|w| w.steps.len()).sum();
            assert!(min.stored_steps() <= full);
            if witnesses.len() >= 2 {
                // Every multi-witness finding shares at least the IPC
                // entry step.
                assert!(
                    !min.prefix.is_empty(),
                    "{}.{}: no shared prefix",
                    row.ipc.service,
                    row.ipc.method
                );
                assert!(min.stored_steps() < full, "no sharing achieved");
                multi_checked += 1;
            }
        }
        assert!(multi_checked > 0, "no multi-witness finding exercised");
    }

    #[test]
    fn minimisation_keeps_identical_witnesses_apart() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let root = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        let analysis = LeakChecker::new(&model).analyze();
        let site = &analysis.summary(root).sites[0];
        let w = Witness::build(&model, root, site).unwrap();
        // Two identical witnesses: the prefix must stop short of the
        // whole path so each suffix still carries its sink.
        let min = MinimisedFlows::minimise(&[w.clone(), w.clone()]);
        assert_eq!(min.expand(), vec![w.clone(), w]);
        assert!(min.suffixes.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn witness_renders_one_line_per_step() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let root = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        let analysis = LeakChecker::new(&model).analyze();
        let site = &analysis.summary(root).sites[0];
        let witness = Witness::build(&model, root, site).unwrap();
        let lines = witness.render(&model);
        assert_eq!(lines.len(), witness.steps.len());
        assert!(lines[0].contains("IPC entry"));
        assert!(lines.last().unwrap().contains("inserts the JGR"));
    }
}
