//! Process, user, and thread identities shared across the simulated system.

use std::fmt;

use serde::Serialize;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw kernel-style numeric id.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric id.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

id_newtype!(
    /// A process id in the simulated kernel.
    ///
    /// ```
    /// use jgre_sim::Pid;
    /// assert_eq!(Pid::new(412).to_string(), "pid:412");
    /// ```
    Pid,
    "pid:"
);

id_newtype!(
    /// An Android user id. Third-party apps get uids starting at 10000,
    /// mirroring `Process.FIRST_APPLICATION_UID`; the paper's Figure 9
    /// reports attackers as uids 10059–10063.
    ///
    /// ```
    /// use jgre_sim::Uid;
    /// assert!(Uid::new(10061).is_app());
    /// assert!(!Uid::SYSTEM.is_app());
    /// ```
    Uid,
    "uid:"
);

id_newtype!(
    /// A thread id within the simulated system.
    Tid,
    "tid:"
);

impl Uid {
    /// The `system` uid (1000 on Android).
    pub const SYSTEM: Uid = Uid(1000);

    /// First uid handed to installed applications
    /// (`Process.FIRST_APPLICATION_UID`).
    pub const FIRST_APPLICATION: Uid = Uid(10_000);

    /// Whether this uid belongs to an installed application rather than a
    /// system component.
    pub const fn is_app(self) -> bool {
        self.0 >= Self::FIRST_APPLICATION.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uid_classification() {
        assert!(Uid::new(10_000).is_app());
        assert!(Uid::new(99_999).is_app());
        assert!(!Uid::new(0).is_app());
        assert!(!Uid::SYSTEM.is_app());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pid::new(1).to_string(), "pid:1");
        assert_eq!(Uid::SYSTEM.to_string(), "uid:1000");
        assert_eq!(Tid::new(7).to_string(), "tid:7");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(Pid::new(3) < Pid::new(4));
        assert_eq!(Uid::from(5u32).raw(), 5);
    }
}
