//! Typed errors for the defense stack.
//!
//! The chaos experiments drive the defender with deliberately broken
//! inputs; every formerly-panicking validation on that path now surfaces
//! as a [`DefenseError`] so an injected fault degrades the run instead of
//! aborting it.

use std::fmt;

/// Why a defense component refused its configuration or input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DefenseError {
    /// `record_threshold` must be strictly below `trigger_threshold` —
    /// recording has to begin before the alarm fires or there is nothing
    /// to correlate.
    InvalidThresholds {
        /// The offered record threshold.
        record: usize,
        /// The offered trigger threshold.
        trigger: usize,
    },
}

impl fmt::Display for DefenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseError::InvalidThresholds { record, trigger } => write!(
                f,
                "record threshold {record} must be below trigger threshold {trigger}: \
                 recording must begin before the alarm"
            ),
        }
    }
}

impl std::error::Error for DefenseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = DefenseError::InvalidThresholds {
            record: 10,
            trigger: 10,
        };
        assert!(e.to_string().contains("before the alarm"));
    }
}
