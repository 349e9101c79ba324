//! Low-memory-killer victim selection.
//!
//! Android's LMK kills background apps by descending `oom_score_adj` when
//! memory runs low. Two places in the reproduction rely on it:
//!
//! * the Figure 4 benign baseline: launching the top-300 apps never runs
//!   more than ~39 simultaneously because the 16 GB Nexus 5X evicts the
//!   oldest background apps, which also releases their JGR entries in
//!   `system_server`;
//! * the paper's defense is explicitly designed "similar to Android's low
//!   memory killer" — the `jgre-defense` crate reuses this victim-ranking
//!   shape with a JGR score instead of a memory score.

use jgre_sim::{Pid, SimTime};
use serde::Serialize;

/// `oom_score_adj` of the foreground app.
pub const OOM_SCORE_FOREGROUND: i32 = 0;
/// `oom_score_adj` of cached background apps.
pub const OOM_SCORE_BACKGROUND: i32 = 900;

/// LMK configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LmkConfig {
    /// Maximum concurrently running third-party app processes before the
    /// killer starts evicting. The paper observes at most 39 of the 100
    /// installed apps alive at once on the 16 GB test device.
    pub max_user_apps: usize,
}

impl Default for LmkConfig {
    fn default() -> Self {
        Self { max_user_apps: 39 }
    }
}

/// A candidate process as the killer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LmkCandidate {
    /// Process id.
    pub pid: Pid,
    /// Its current `oom_score_adj`.
    pub oom_score_adj: i32,
    /// When it was last foregrounded.
    pub last_foreground: SimTime,
}

/// Picks the victim to evict when over the app cap: highest
/// `oom_score_adj` first, oldest `last_foreground` as tie-break — i.e.
/// the most-cached, least-recently-used app. Returns `None` for an empty
/// candidate list.
///
/// # Example
///
/// ```
/// use jgre_framework::LmkConfig;
/// use jgre_framework::{OOM_SCORE_BACKGROUND, OOM_SCORE_FOREGROUND};
/// # use jgre_sim::{Pid, SimTime};
/// # use jgre_framework::select_lmk_victim;
/// # use jgre_framework::LmkCandidate;
/// let victims = [
///     LmkCandidate { pid: Pid::new(1), oom_score_adj: OOM_SCORE_FOREGROUND,
///                    last_foreground: SimTime::from_secs(10) },
///     LmkCandidate { pid: Pid::new(2), oom_score_adj: OOM_SCORE_BACKGROUND,
///                    last_foreground: SimTime::from_secs(5) },
///     LmkCandidate { pid: Pid::new(3), oom_score_adj: OOM_SCORE_BACKGROUND,
///                    last_foreground: SimTime::from_secs(2) },
/// ];
/// assert_eq!(select_lmk_victim(&victims), Some(Pid::new(3)));
/// ```
pub fn select_lmk_victim(candidates: &[LmkCandidate]) -> Option<Pid> {
    candidates
        .iter()
        .max_by(|a, b| {
            a.oom_score_adj
                .cmp(&b.oom_score_adj)
                .then_with(|| b.last_foreground.cmp(&a.last_foreground))
        })
        .map(|c| c.pid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_victim() {
        assert_eq!(select_lmk_victim(&[]), None);
    }

    #[test]
    fn background_beats_foreground() {
        let cands = [
            LmkCandidate {
                pid: Pid::new(1),
                oom_score_adj: OOM_SCORE_FOREGROUND,
                last_foreground: SimTime::ZERO,
            },
            LmkCandidate {
                pid: Pid::new(2),
                oom_score_adj: OOM_SCORE_BACKGROUND,
                last_foreground: SimTime::from_secs(100),
            },
        ];
        assert_eq!(select_lmk_victim(&cands), Some(Pid::new(2)));
    }

    #[test]
    fn lru_breaks_ties() {
        let cands = [
            LmkCandidate {
                pid: Pid::new(1),
                oom_score_adj: OOM_SCORE_BACKGROUND,
                last_foreground: SimTime::from_secs(50),
            },
            LmkCandidate {
                pid: Pid::new(2),
                oom_score_adj: OOM_SCORE_BACKGROUND,
                last_foreground: SimTime::from_secs(10),
            },
        ];
        assert_eq!(select_lmk_victim(&cands), Some(Pid::new(2)));
    }

    #[test]
    fn default_cap_matches_paper_observation() {
        assert_eq!(LmkConfig::default().max_user_apps, 39);
    }
}
