//! A batteries-included device: framework + defense, with automatic
//! polling.
//!
//! The experiment runners poll the defender explicitly to measure it;
//! downstream users usually just want a device that defends itself. A
//! [`DefendedDevice`] polls after every dispatched call and accumulates
//! the detections.

use std::rc::Rc;

use jgre_corpus::spec::AospSpec;
use jgre_defense::{DetectionOutcome, JgreDefender};
use jgre_framework::{CallOptions, CallOutcome, FrameworkError, System, SystemImage};
use jgre_sim::Uid;

use crate::ExperimentScale;

/// A [`System`] with the JGRE Defender installed and auto-polled.
///
/// # Example
///
/// ```
/// use jgre_core::{DefendedDevice, ExperimentScale};
/// use jgre_framework::CallOptions;
///
/// let mut device = DefendedDevice::boot(ExperimentScale::quick());
/// let mal = device.system_mut().install_app("com.evil", []);
/// // Grind a vulnerable interface; the device defends itself.
/// for _ in 0..10_000 {
///     let outcome = device
///         .call_service(mal, "clipboard", "addPrimaryClipChangedListener", CallOptions::default())
///         .unwrap();
///     assert!(!outcome.host_aborted);
///     if !device.detections().is_empty() {
///         break;
///     }
/// }
/// assert_eq!(device.detections().len(), 1);
/// assert_eq!(device.system().soft_reboots(), 0);
/// ```
#[derive(Debug)]
pub struct DefendedDevice {
    system: System,
    defender: JgreDefender,
    detections: Vec<DetectionOutcome>,
}

impl DefendedDevice {
    /// Boots a device at the given scale with the defense installed.
    pub fn boot(scale: ExperimentScale) -> Self {
        Self::boot_with_spec(scale, Rc::new(AospSpec::android_6_0_1()))
    }

    /// Boots a device from an already-synthesized (possibly shared) image —
    /// the fleet engine's boot path, where thousands of devices per worker
    /// share one immutable Android image.
    pub fn boot_with_spec(scale: ExperimentScale, image: impl Into<SystemImage>) -> Self {
        let mut system = System::boot_with_spec(scale.system_config(), image);
        let defender = JgreDefender::install(&mut system, scale.defender_config())
            .expect("scale presets produce a valid defender config");
        Self {
            system,
            defender,
            detections: Vec::new(),
        }
    }

    /// Re-boots this device in place for the next fleet run: a new system
    /// booted from the same shared image (read in place, never copied) and
    /// a new defender replace the old ones; only the detections buffer's
    /// allocation is kept.
    ///
    /// After a reset the device is observationally identical to a fresh
    /// [`boot`](Self::boot) at the same scale: new system, new defender,
    /// empty detections, virtual clock back at the boot epoch. Nothing
    /// from the previous run — defender monitor state, driver log, JGR
    /// tables, installed apps — survives; the arena-reuse test in
    /// `crates/core/tests/device_reset.rs` pins that equivalence.
    pub fn reset(&mut self, scale: ExperimentScale) {
        let mut system = System::boot_with_spec(scale.system_config(), self.system.image());
        self.defender = JgreDefender::install(&mut system, scale.defender_config())
            .expect("scale presets produce a valid defender config");
        self.system = system;
        self.detections.clear();
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying system (app management, GC, …).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The installed defender.
    pub fn defender(&self) -> &JgreDefender {
        &self.defender
    }

    /// Detections accumulated so far, in order.
    pub fn detections(&self) -> &[DetectionOutcome] {
        &self.detections
    }

    /// Dispatches one IPC call and lets the defender react to any alarm it
    /// raised.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`] from the dispatch; note that the
    /// caller itself may have been killed by an earlier detection, in
    /// which case the framework restarts its process transparently.
    pub fn call_service(
        &mut self,
        caller: Uid,
        service: &str,
        method: &str,
        options: CallOptions,
    ) -> Result<CallOutcome, FrameworkError> {
        let outcome = self.system.call_service(caller, service, method, options)?;
        while let Some(detection) = self.defender.poll(&mut self.system) {
            self.detections.push(detection);
        }
        Ok(outcome)
    }

    /// Dispatches one raw Binder transaction (see
    /// [`System::transact_raw`]) and polls the defender, exactly as
    /// [`call_service`](Self::call_service) does — the entry point the
    /// fuzzer drives so detections accumulate under malformed traffic too.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`] for bad addressing or permission
    /// denials; malformed parcels come back as typed rejected outcomes,
    /// not errors.
    pub fn transact_raw(
        &mut self,
        caller: Uid,
        service: &str,
        code: u32,
        parcel: &mut jgre_binder::Parcel,
    ) -> Result<CallOutcome, FrameworkError> {
        let outcome = self.system.transact_raw(caller, service, code, parcel)?;
        while let Some(detection) = self.defender.poll(&mut self.system) {
            self.detections.push(detection);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_survives_and_records_detections() {
        let mut device = DefendedDevice::boot(ExperimentScale::quick());
        let mal = device.system_mut().install_app("com.evil", []);
        let mut calls = 0u64;
        while device.detections().is_empty() {
            device
                .call_service(mal, "audio", "startWatchingRoutes", CallOptions::default())
                .expect("audio registered");
            calls += 1;
            assert!(calls < 50_000, "defense never fired");
        }
        let d = &device.detections()[0];
        assert_eq!(d.killed, vec![mal]);
        assert_eq!(device.system().soft_reboots(), 0);
        // The device keeps serving (the attacker's process restarts on the
        // next call, table near the floor).
        let benign = device.system_mut().install_app("com.fine", []);
        let o = device
            .call_service(
                benign,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .expect("still serving");
        assert!(o.status.is_completed());
    }

    #[test]
    fn quiet_device_accumulates_nothing() {
        let mut device = DefendedDevice::boot(ExperimentScale::quick());
        let app = device.system_mut().install_app("com.quiet", []);
        for _ in 0..50 {
            device
                .call_service(app, "clipboard", "getState", CallOptions::default())
                .expect("innocent method");
        }
        assert!(device.detections().is_empty());
    }
}
