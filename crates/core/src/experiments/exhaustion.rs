//! Figures 3, 5 and 6 — attack dynamics.

use std::fmt::Write as _;

use jgre_attack::{run_exhaustion_attack, AttackSample, AttackVector};
use jgre_corpus::spec::AospSpec;
use jgre_framework::System;
use serde::Serialize;

use crate::ExperimentScale;

/// One interface's exhaustion curve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig3Series {
    /// `service.method`.
    pub interface: String,
    /// Seconds of attack time to abort the victim.
    pub exhaustion_secs: f64,
    /// Sampled `(seconds, JGR count)` points.
    pub points: Vec<(f64, usize)>,
}

/// Figure 3: JGR growth of all 54 vulnerable interfaces under attack.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig3 {
    /// One curve per interface, fastest first.
    pub series: Vec<Fig3Series>,
    /// The table capacity the curves climb to.
    pub capacity: usize,
}

impl Fig3 {
    /// Fastest exhaustion, seconds.
    pub fn fastest_secs(&self) -> f64 {
        self.series
            .first()
            .map(|s| s.exhaustion_secs)
            .unwrap_or(0.0)
    }

    /// Slowest exhaustion, seconds.
    pub fn slowest_secs(&self) -> f64 {
        self.series.last().map(|s| s.exhaustion_secs).unwrap_or(0.0)
    }

    /// Plain-text summary (per-interface exhaustion times).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 3 — attack duration to exhaust {} JGR entries\n",
            self.capacity
        );
        for s in &self.series {
            let _ = writeln!(out, "{:>9.1}s  {}", s.exhaustion_secs, s.interface);
        }
        let _ = writeln!(
            out,
            "fastest {:.0}s, slowest {:.0}s",
            self.fastest_secs(),
            self.slowest_secs()
        );
        out
    }
}

/// Regenerates Figure 3: drives each of the 54 vulnerable service
/// interfaces on a fresh device until the victim aborts.
pub fn fig3(scale: ExperimentScale) -> Fig3 {
    let spec = AospSpec::android_6_0_1();
    let mut series = Vec::new();
    for vector in AttackVector::service_vectors(&spec) {
        let mut system = System::boot_with(scale.system_config());
        let sample_every = (scale.jgr_capacity as u64 / 40).max(1);
        let result = run_exhaustion_attack(
            &mut system,
            &vector,
            scale.jgr_capacity as u64 * 4,
            sample_every,
        );
        assert!(
            result.aborted,
            "{}.{} did not exhaust",
            vector.service, vector.method
        );
        series.push(Fig3Series {
            interface: format!("{}.{}", vector.service, vector.method),
            exhaustion_secs: result
                .time_to_exhaustion
                .expect("aborted runs report a duration")
                .as_secs_f64(),
            points: result
                .samples
                .iter()
                .map(|s: &AttackSample| (s.at.as_secs_f64(), s.victim_jgr))
                .collect(),
        });
    }
    series.sort_by(|a, b| a.exhaustion_secs.total_cmp(&b.exhaustion_secs));
    Fig3 {
        series,
        capacity: scale.jgr_capacity,
    }
}

/// Figure 5: execution time of `telephony.registry.listenForSubscriber`
/// against the invocation index during an attack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig5 {
    /// `(invocation index, execution µs)` samples.
    pub points: Vec<(u64, u64)>,
    /// Total invocations driven.
    pub invocations: u64,
}

impl Fig5 {
    /// Mean execution time over the first `n` samples, µs.
    fn mean_first(&self, n: usize) -> f64 {
        let take: Vec<_> = self.points.iter().take(n).collect();
        take.iter().map(|(_, us)| *us as f64).sum::<f64>() / take.len().max(1) as f64
    }

    /// Mean execution time over the last `n` samples, µs.
    fn mean_last(&self, n: usize) -> f64 {
        let take: Vec<_> = self.points.iter().rev().take(n).collect();
        take.iter().map(|(_, us)| *us as f64).sum::<f64>() / take.len().max(1) as f64
    }

    /// Plain-text summary.
    pub fn render(&self) -> String {
        format!(
            "Figure 5 — listenForSubscriber execution time growth\n\
             invocations: {}\nearly mean: {:.0}µs\nlate mean:  {:.0}µs (paper: grows toward ~60000µs near 50k)\n",
            self.invocations,
            self.mean_first(50),
            self.mean_last(50),
        )
    }

    /// Ratio of late to early mean execution time.
    pub fn growth_factor(&self) -> f64 {
        self.mean_last(50) / self.mean_first(50).max(1.0)
    }
}

/// Regenerates Figure 5.
pub fn fig5(scale: ExperimentScale) -> Fig5 {
    let mut system = System::boot_with(scale.system_config());
    let spec = AospSpec::android_6_0_1();
    let vector = AttackVector::service_vectors(&spec)
        .into_iter()
        .find(|v| v.service == "telephony.registry" && v.method == "listenForSubscriber")
        .expect("the interface is in Table I");
    let app = system.install_app("com.attacker", vector.permissions.iter().copied());
    let invocations = (scale.jgr_capacity as u64).saturating_sub(10);
    let mut points = Vec::new();
    let stride = (invocations / 2_000).max(1);
    for i in 0..invocations {
        let o = system
            .call_service(app, &vector.service, &vector.method, vector.call_options())
            .expect("attack calls succeed until exhaustion");
        if i % stride == 0 {
            points.push((i, o.exec_time.as_micros()));
        }
        if o.host_aborted {
            break;
        }
    }
    Fig5 {
        points,
        invocations,
    }
}

/// Figure 6: CDF of execution time across all vulnerable interfaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fig6 {
    /// Sorted execution times, µs (the empirical CDF's x values).
    pub sorted_exec_us: Vec<u64>,
    /// Interfaces driven.
    pub interfaces: usize,
    /// Calls per interface.
    pub calls_per_interface: usize,
}

impl Fig6 {
    /// The p-th percentile execution time, µs.
    ///
    /// # Panics
    ///
    /// Panics if no samples were collected or `p` is not within `0..=100`.
    pub fn percentile(&self, p: u32) -> u64 {
        let mut samples = jgre_sim::Samples::from_values(self.sorted_exec_us.iter().copied());
        samples.percentile(p)
    }

    /// The empirical CDF, thinned to at most `max_points` — the series
    /// Figure 6 plots.
    pub fn cdf(&self, max_points: usize) -> Vec<(u64, f64)> {
        jgre_sim::Samples::from_values(self.sorted_exec_us.iter().copied()).cdf(max_points)
    }

    /// Plain-text summary.
    pub fn render(&self) -> String {
        format!(
            "Figure 6 — execution-time CDF over {} interfaces × {} calls\n\
             p10 {}µs, p50 {}µs, p90 {}µs, p100 {}µs (paper envelope: 0–8000µs)\n",
            self.interfaces,
            self.calls_per_interface,
            self.percentile(10),
            self.percentile(50),
            self.percentile(90),
            self.percentile(100),
        )
    }
}

/// Regenerates Figure 6: 1000 calls per vulnerable interface (the paper's
/// protocol), collecting every execution time.
pub fn fig6(scale: ExperimentScale, calls_per_interface: usize) -> Fig6 {
    let spec = AospSpec::android_6_0_1();
    let vectors = AttackVector::service_vectors(&spec);
    let mut exec = Vec::with_capacity(vectors.len() * calls_per_interface);
    // One shared device: 54 × calls stays far from the cap at paper scale
    // when `calls_per_interface` is the paper's 1000 ... but not at quick
    // scale, so each interface gets a fresh device there.
    for vector in &vectors {
        let mut system = System::boot_with(scale.system_config());
        let app = system.install_app("com.prober", vector.permissions.iter().copied());
        for _ in 0..calls_per_interface {
            let o = system
                .call_service(app, &vector.service, &vector.method, vector.call_options())
                .expect("probe calls succeed");
            if o.host_aborted {
                break;
            }
            exec.push(o.exec_time.as_micros());
        }
    }
    exec.sort_unstable();
    Fig6 {
        sorted_exec_us: exec,
        interfaces: vectors.len(),
        calls_per_interface,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_ordering_holds_at_quick_scale() {
        let f = fig3(ExperimentScale::quick());
        assert_eq!(f.series.len(), 54);
        // Shrinking the table shrinks the slope term quadratically but the
        // base term only linearly, so near-ties at the fast end may swap;
        // the paper's extremes still hold up to that tolerance: the audio
        // route watcher is among the fastest, the toast is the slowest.
        assert_eq!(f.series[0].interface, "audio.startWatchingRoutes");
        assert_eq!(
            f.series.last().unwrap().interface,
            "notification.enqueueToast"
        );
        // At 1/16 scale the slope term (which carries most of the paper's
        // 18× spread) shrinks quadratically, so only a compressed spread
        // remains; the full ratio is validated at paper scale by the
        // fig3 bench (see EXPERIMENTS.md).
        let ratio = f.slowest_secs() / f.fastest_secs();
        assert!((2.0..30.0).contains(&ratio), "spread ratio {ratio}");
        // Every curve climbs to the cap.
        for s in &f.series {
            let max = s.points.iter().map(|(_, j)| *j).max().unwrap_or(0);
            assert!(
                max as f64 >= f.capacity as f64 * 0.9,
                "{} stopped at {max}",
                s.interface
            );
        }
    }

    #[test]
    fn fig5_shows_growth() {
        let f = fig5(ExperimentScale::quick());
        assert!(f.points.len() > 100);
        assert!(
            f.growth_factor() > 1.2,
            "execution time must grow with stored entries, factor {}",
            f.growth_factor()
        );
    }

    #[test]
    fn fig6_envelope_matches_paper() {
        let f = fig6(ExperimentScale::quick(), 200);
        assert!(f.percentile(100) < 11_000, "p100 {}", f.percentile(100));
        assert!(f.percentile(50) < 5_000, "p50 {}", f.percentile(50));
        assert!(f.render().contains("CDF"));
        let cdf = f.cdf(100);
        assert!(cdf.len() <= 101 && !cdf.is_empty());
        assert_eq!(cdf.last().unwrap().1, 1.0, "CDF reaches 1");
    }
}
