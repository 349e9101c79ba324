//! Name lookups for the extractors: [`CodeModel::find_method`] and
//! [`CodeModel::find_class`] answered from an index instead of a scan.
//!
//! Each `find_*` call on the model compares every method's or class's
//! name, so an extractor resolving one name per JNI registration or
//! registered service pays O(corpus) per lookup — and registrations of
//! generated JNI libraries, which have no Java method, scan the whole
//! corpus for nothing. A [`NameIndex`] is built once per extraction run
//! and narrows each lookup to the entries whose name has the right
//! length. It is not cached inside the model: [`CodeModel`]'s fields
//! are public `Vec`s that callers edit in place, so a cached index could
//! go stale without the model noticing.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::OnceCell;

use jgre_corpus::{ClassDef, CodeModel, MethodId};

/// Names at least this long share the last length bucket.
const LONG_NAME: usize = 256;

/// Per-run name index over one [`CodeModel`], built lazily: each half is
/// built by the first lookup that needs it, so an extractor that only
/// resolves classes never indexes the methods.
///
/// Lookups return exactly what the model's linear scans return: the
/// first class of a name, and the lowest-id method of a `(class, name)`
/// pair. Methods are indexed by their own `class` field, so a method
/// whose class has no [`ClassDef`] still resolves.
///
/// # Example
///
/// ```
/// use jgre_analysis::NameIndex;
/// use jgre_corpus::{spec::AospSpec, CodeModel};
///
/// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
/// let names = NameIndex::new(&model);
/// assert_eq!(
///     names.find_method("android.os.Binder", "linkToDeath"),
///     model.find_method("android.os.Binder", "linkToDeath"),
/// );
/// assert!(names.find_class("com.svox.pico.PicoService").is_some());
/// ```
#[derive(Debug)]
pub struct NameIndex<'m> {
    model: &'m CodeModel,
    /// Classes by the length of their name.
    classes: OnceCell<ByLength>,
    /// Methods by the length of their class's name.
    methods: OnceCell<ByLength>,
}

/// Positions grouped by the length of a name, in ascending order within
/// a group. A counting sort on the lengths alone builds it, so building
/// reads no string bytes; a lookup then compares only the names of the
/// right length, in position order, which keeps first-match semantics.
#[derive(Debug)]
struct ByLength {
    /// `starts[len]..starts[len + 1]` spans the positions of `len`.
    starts: Vec<usize>,
    positions: Vec<usize>,
}

impl ByLength {
    fn new(lens: impl Iterator<Item = usize> + Clone) -> Self {
        let mut starts = vec![0; LONG_NAME + 2];
        for len in lens.clone() {
            starts[len.min(LONG_NAME) + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut next = starts.clone();
        let mut positions = vec![0; starts[LONG_NAME + 1]];
        for (pos, len) in lens.enumerate() {
            let slot = &mut next[len.min(LONG_NAME)];
            positions[*slot] = pos;
            *slot += 1;
        }
        Self { starts, positions }
    }

    fn of_len(&self, len: usize) -> impl Iterator<Item = usize> + '_ {
        let len = len.min(LONG_NAME);
        self.positions[self.starts[len]..self.starts[len + 1]]
            .iter()
            .copied()
    }
}

impl<'m> NameIndex<'m> {
    /// An index over `model`; nothing is built until the first lookup.
    pub fn new(model: &'m CodeModel) -> Self {
        Self {
            model,
            classes: OnceCell::new(),
            methods: OnceCell::new(),
        }
    }

    /// [`CodeModel::find_class`] through the index.
    pub fn find_class(&self, name: &str) -> Option<&'m ClassDef> {
        let classes = &self.model.classes;
        self.classes
            .get_or_init(|| ByLength::new(classes.iter().map(|c| c.name.len())))
            .of_len(name.len())
            .map(|pos| &classes[pos])
            .find(|c| c.name == name)
    }

    /// [`CodeModel::find_method`] through the index: the lowest-id method
    /// named `name` whose class is `class`.
    pub fn find_method(&self, class: &str, name: &str) -> Option<MethodId> {
        let methods = &self.model.methods;
        self.methods
            .get_or_init(|| ByLength::new(methods.iter().map(|m| m.class.len())))
            .of_len(class.len())
            .map(|pos| &methods[pos])
            .find(|m| m.name == name && m.class == class)
            .map(|m| m.id)
    }
}
