//! Error type for Binder operations.

use std::error::Error;
use std::fmt;

/// Errors returned by the simulated Binder layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BinderError {
    /// The target node does not exist.
    UnknownNode,
    /// The target node's hosting process has died
    /// (`DeadObjectException` territory).
    DeadNode,
    /// Reading past the end of a parcel.
    ParcelUnderflow,
    /// The next parcel value had a different type than requested.
    ParcelTypeMismatch {
        /// Type the reader asked for.
        expected: &'static str,
        /// Type actually present.
        found: &'static str,
    },
    /// A death link to remove was not found.
    UnknownDeathLink,
    /// The parcel exceeds the Binder transaction buffer
    /// (`TransactionTooLargeException`; the buffer is 1 MB per process on
    /// Android).
    TransactionTooLarge {
        /// Payload size that was attempted.
        size: usize,
        /// The buffer limit.
        limit: usize,
    },
}

impl fmt::Display for BinderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinderError::UnknownNode => write!(f, "unknown binder node"),
            BinderError::DeadNode => write!(f, "binder node's hosting process has died"),
            BinderError::ParcelUnderflow => write!(f, "read past end of parcel"),
            BinderError::ParcelTypeMismatch { expected, found } => {
                write!(
                    f,
                    "parcel type mismatch: expected {expected}, found {found}"
                )
            }
            BinderError::UnknownDeathLink => write!(f, "death link not found"),
            BinderError::TransactionTooLarge { size, limit } => {
                write!(f, "transaction too large: {size} bytes (limit {limit})")
            }
        }
    }
}

impl Error for BinderError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(BinderError::UnknownNode.to_string(), "unknown binder node");
        let e = BinderError::ParcelTypeMismatch {
            expected: "string",
            found: "i32",
        };
        assert!(e.to_string().contains("expected string"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: Send + Sync + Error>() {}
        assert_traits::<BinderError>();
    }
}
