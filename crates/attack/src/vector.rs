//! Attack vectors and the exhaustion harness.

use jgre_corpus::spec::{AospSpec, Flaw, JgrBehavior, Permission, Protection};
use jgre_framework::{CallOptions, FrameworkError, System};
use jgre_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Everything a malicious app needs to exploit one interface.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AttackVector {
    /// Registered service name on the device.
    pub service: String,
    /// Vulnerable method.
    pub method: String,
    /// Permissions the malicious app must declare (normal ones are
    /// granted silently; dangerous ones assume a fooled user).
    pub permissions: Vec<Permission>,
    /// Whether the exploit must pass `"android"` as the package name to
    /// bypass a flawed per-process limit.
    pub spoof_system_package: bool,
    /// Global references created per call.
    pub grefs_per_call: u32,
}

impl AttackVector {
    /// The 54 vulnerable system-service interfaces (Tables I–III).
    pub fn service_vectors(spec: &AospSpec) -> Vec<AttackVector> {
        spec.vulnerable_service_interfaces()
            .map(|(s, m)| Self::from_specs(&s.name, m))
            .collect()
    }

    /// The 3 vulnerable prebuilt-app interfaces (Table IV), addressed by
    /// their exported service names.
    pub fn prebuilt_vectors(spec: &AospSpec) -> Vec<AttackVector> {
        spec.vulnerable_prebuilt_interfaces()
            .map(|(_, s, m)| Self::from_specs(&s.name, m))
            .collect()
    }

    /// All 57 dynamically attackable vectors.
    pub fn all_vectors(spec: &AospSpec) -> Vec<AttackVector> {
        let mut v = Self::service_vectors(spec);
        v.extend(Self::prebuilt_vectors(spec));
        v
    }

    fn from_specs(service: &str, m: &jgre_corpus::spec::MethodSpec) -> AttackVector {
        AttackVector {
            service: service.to_owned(),
            method: m.name.clone(),
            permissions: m.permission.into_iter().collect(),
            spoof_system_package: matches!(
                m.protection,
                Protection::PerProcessLimit {
                    flaw: Some(Flaw::SystemPackageSpoof),
                    ..
                }
            ),
            grefs_per_call: match m.jgr {
                JgrBehavior::RetainPerCall { grefs_per_call } => grefs_per_call,
                _ => 0,
            },
        }
    }

    /// Canonical `service.method` label of this vector, as it appears in
    /// experiment tables and fleet summaries.
    pub fn label(&self) -> String {
        format!("{}.{}", self.service, self.method)
    }

    /// Resolves a catalog selector against [`all_vectors`](Self::all_vectors):
    /// either a zero-based index (`"12"`) or a `service.method` label
    /// (`"audio.startWatchingRoutes"`). Returns the catalog index and the
    /// vector, or `None` when nothing matches.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_attack::AttackVector;
    /// use jgre_corpus::spec::AospSpec;
    ///
    /// let spec = AospSpec::android_6_0_1();
    /// let (idx, v) = AttackVector::resolve(&spec, "clipboard.addPrimaryClipChangedListener").unwrap();
    /// assert_eq!(AttackVector::resolve(&spec, &idx.to_string()).unwrap().1, v);
    /// assert!(AttackVector::resolve(&spec, "no.such").is_none());
    /// ```
    pub fn resolve(spec: &AospSpec, selector: &str) -> Option<(usize, AttackVector)> {
        let catalog = Self::all_vectors(spec);
        if let Ok(index) = selector.parse::<usize>() {
            return catalog.get(index).map(|v| (index, v.clone()));
        }
        catalog
            .into_iter()
            .enumerate()
            .find(|(_, v)| v.label() == selector)
    }

    /// Call options implementing this vector's exploit.
    pub fn call_options(&self) -> CallOptions {
        CallOptions {
            spoof_system_package: self.spoof_system_package,
            ..CallOptions::default()
        }
    }
}

/// One sample point along an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AttackSample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Calls issued so far.
    pub calls: u64,
    /// Victim's JGR table size.
    pub victim_jgr: usize,
    /// Execution time of the most recent call, µs.
    pub exec_us: u64,
}

/// Result of driving one vector to exhaustion (or to the call budget).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExhaustionResult {
    /// The vector driven.
    pub vector: AttackVector,
    /// Virtual time from first call to abort (None if the budget ran out
    /// first).
    pub time_to_exhaustion: Option<SimDuration>,
    /// Calls issued.
    pub calls: u64,
    /// Whether the victim aborted (for `system_server`: soft reboot).
    pub aborted: bool,
    /// Sampled curve (one point per `sample_every` calls).
    pub samples: Vec<AttackSample>,
}

/// Drives `vector` against `system` until the victim aborts or `max_calls`
/// is reached. Samples every `sample_every` calls.
///
/// # Panics
///
/// Panics if `sample_every` is zero.
///
/// # Example
///
/// ```
/// use jgre_attack::{run_exhaustion_attack, AttackVector};
/// use jgre_framework::{System, SystemConfig};
///
/// // A small JGR cap keeps the doctest fast; the real cap is 51200.
/// let mut system = System::boot_with(SystemConfig {
///     jgr_capacity: Some(500),
///     ..SystemConfig::default()
/// });
/// let vectors = AttackVector::service_vectors(system.spec());
/// let clip = vectors
///     .iter()
///     .find(|v| v.service == "clipboard")
///     .unwrap()
///     .clone();
/// let result = run_exhaustion_attack(&mut system, &clip, 1_000, 100);
/// assert!(result.aborted);
/// assert_eq!(system.soft_reboots(), 1);
/// ```
pub fn run_exhaustion_attack(
    system: &mut System,
    vector: &AttackVector,
    max_calls: u64,
    sample_every: u64,
) -> ExhaustionResult {
    assert!(sample_every > 0, "sample_every must be positive");
    let mal = system.install_app(
        format!("com.malware.{}.{}", vector.service, vector.method),
        vector.permissions.iter().copied(),
    );
    let victim = system
        .service_info(&vector.service)
        .map(|i| i.host)
        .expect("vector targets a registered service");
    let started = system.now();
    let mut samples = Vec::new();
    let mut calls = 0u64;
    let mut aborted = false;
    while calls < max_calls {
        let outcome = match system.call_service(
            mal,
            &vector.service,
            &vector.method,
            vector.call_options(),
        ) {
            Ok(o) => o,
            Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => break,
            Err(e) => panic!("attack on {}.{} failed: {e}", vector.service, vector.method),
        };
        calls += 1;
        if calls.is_multiple_of(sample_every) || outcome.host_aborted {
            samples.push(AttackSample {
                at: system.now(),
                calls,
                victim_jgr: if outcome.host_aborted {
                    outcome.host_jgr_count
                } else {
                    system.jgr_count(victim).unwrap_or(outcome.host_jgr_count)
                },
                exec_us: outcome.exec_time.as_micros(),
            });
        }
        if outcome.host_aborted {
            aborted = true;
            break;
        }
    }
    ExhaustionResult {
        vector: vector.clone(),
        time_to_exhaustion: aborted.then(|| system.now().saturating_since(started)),
        calls,
        aborted,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_framework::SystemConfig;

    fn small_system(cap: usize, seed: u64) -> System {
        System::boot_with(SystemConfig {
            seed,
            jgr_capacity: Some(cap),
            ..SystemConfig::default()
        })
    }

    #[test]
    fn vector_catalog_counts() {
        let spec = AospSpec::android_6_0_1();
        assert_eq!(AttackVector::service_vectors(&spec).len(), 54);
        assert_eq!(AttackVector::prebuilt_vectors(&spec).len(), 3);
        assert_eq!(AttackVector::all_vectors(&spec).len(), 57);
    }

    #[test]
    fn resolve_accepts_index_and_label() {
        let spec = AospSpec::android_6_0_1();
        let catalog = AttackVector::all_vectors(&spec);
        for (i, v) in catalog.iter().enumerate() {
            assert_eq!(
                AttackVector::resolve(&spec, &i.to_string()),
                Some((i, v.clone()))
            );
            assert_eq!(
                AttackVector::resolve(&spec, &v.label()),
                Some((i, v.clone()))
            );
        }
        assert!(AttackVector::resolve(&spec, "57").is_none());
        assert!(AttackVector::resolve(&spec, "bogus.method").is_none());
    }

    #[test]
    fn every_vector_exhausts_a_small_table() {
        let spec = AospSpec::android_6_0_1();
        for vector in AttackVector::all_vectors(&spec) {
            let mut system = small_system(120, 9);
            let result = run_exhaustion_attack(&mut system, &vector, 1_000, 50);
            assert!(
                result.aborted,
                "{}.{} failed to exhaust (calls={})",
                vector.service, vector.method, result.calls
            );
        }
    }

    #[test]
    fn samples_are_monotone_in_time_and_jgr_grows() {
        let mut system = small_system(400, 1);
        let spec = system.spec().clone();
        let vector = AttackVector::service_vectors(&spec)
            .into_iter()
            .find(|v| v.service == "audio" && v.method == "startWatchingRoutes")
            .unwrap();
        let result = run_exhaustion_attack(&mut system, &vector, 10_000, 20);
        assert!(result.aborted);
        for pair in result.samples.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        let last_before_abort = result.samples[result.samples.len() - 2].victim_jgr;
        assert!(last_before_abort > 300, "curve should approach the cap");
    }

    #[test]
    fn faster_interface_exhausts_sooner() {
        let spec = AospSpec::android_6_0_1();
        let fast = AttackVector::service_vectors(&spec)
            .into_iter()
            .find(|v| v.method == "startWatchingRoutes")
            .unwrap();
        let slow = AttackVector::service_vectors(&spec)
            .into_iter()
            .find(|v| v.method == "enqueueToast")
            .unwrap();
        let mut s1 = small_system(2_000, 2);
        let r_fast = run_exhaustion_attack(&mut s1, &fast, 100_000, 500);
        let mut s2 = small_system(2_000, 2);
        let r_slow = run_exhaustion_attack(&mut s2, &slow, 100_000, 500);
        assert!(
            r_fast.time_to_exhaustion.unwrap() < r_slow.time_to_exhaustion.unwrap(),
            "audio must beat notification to the cap"
        );
    }
}
