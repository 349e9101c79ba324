//! Reference implementations kept only as test oracles and ablation
//! arms. No production crate depends on this one: it is reached through
//! `[dev-dependencies]` alone, so tests, examples and benches can
//! compare the deployed code against an independent implementation
//! while the shipped `jgre` binary links none of it.
//!
//! - [`VulnerableIpcDetector`] — the §III-C call-graph heuristic. The
//!   production step 3 is [`jgre_analysis::DataflowDetector`]; on the
//!   pristine corpus their outputs are equal.
//! - [`naive_scores`] — Algorithm 1 over a flat array histogram.
//! - [`SegmentTree`] — §V-D.2's lazy segment tree, the ablation's tree
//!   arm and the second scorer oracle.
//! - [`CallCountDefense`] — the §V-A strawman that ranks apps by raw
//!   call volume, the comparison arm of the defense tests.

#![deny(missing_docs)]

mod call_count;
mod detect;
mod scorer;
mod segment_tree;

pub use call_count::{CallCountDefense, CallCountDetection};
pub use detect::VulnerableIpcDetector;
pub use scorer::naive_scores;
pub use segment_tree::SegmentTree;
