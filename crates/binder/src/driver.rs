//! The simulated Binder kernel driver: nodes, routing, the transaction log,
//! and death notification links.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use jgre_sim::{FaultLayer, IpcLogAction, Pid, SimClock, SimTime, TraceSink, Uid};
use serde::{Deserialize, Serialize};

use crate::{BinderError, LatencyModel, Parcel};

/// The Binder transaction buffer per process (1 MB on Android; a single
/// transaction larger than this throws `TransactionTooLargeException`).
pub const TRANSACTION_BUFFER_LIMIT: usize = 1024 * 1024;

/// Identity of a binder node (a service endpoint or a callback object
/// offered across process boundaries). Node ids are global, standing in
/// for per-process handle tables, which the paper's mechanisms never rely
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(u64);

impl NodeId {
    /// Wraps a raw node number.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw node number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

/// One logged transaction — the record format the paper's defense stores in
/// `/proc/jgre_ipc_log`: *"the related data of IPC calls on from_pid,
/// to_pid, target_handle, to_node and timestamp"* (§V-B). We add the caller
/// uid (the kernel knows it) and the interface/method pair, which the real
/// system recovers from the transaction code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpcRecord {
    /// Driver-assigned transaction sequence number. Every routed
    /// transaction consumes one, *including* records a fault injector
    /// drops from the log — sequence gaps are how the defender estimates
    /// its log coverage.
    pub seq: u64,
    /// When the transaction entered the driver.
    pub at: SimTime,
    /// Sending process.
    pub from_pid: Pid,
    /// Sending app uid — what the defender scores and kills by.
    pub from_uid: Uid,
    /// Receiving process (host of the target node).
    pub to_pid: Pid,
    /// Target node.
    pub to_node: NodeId,
    /// Interface descriptor, e.g. `"IClipboard"`.
    pub interface: String,
    /// Method name, e.g. `"addPrimaryClipChangedListener"`.
    pub method: String,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Code-execution-path tag for the transaction (0 for the common
    /// path). §VI's extension: an attacker may drive one IPC method down
    /// several execution paths with different timing; the instrumented
    /// framework tags the path so the defender can classify calls by it.
    pub path_id: u8,
}

impl IpcRecord {
    /// The `IPCType` key of the paper's Algorithm 1: one scored bucket per
    /// distinct interface/method pair.
    pub fn ipc_type(&self) -> String {
        format!("{}.{}", self.interface, self.method)
    }

    /// The path-classified key of the §VI extension: one bucket per
    /// interface/method/execution-path triple.
    pub fn ipc_type_with_path(&self) -> String {
        format!("{}.{}#{}", self.interface, self.method, self.path_id)
    }
}

/// A registered death link: `watcher` asked to be told when `node` dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeathLink {
    /// The watched node.
    pub node: NodeId,
    /// Process that registered the recipient.
    pub watcher: Pid,
    /// Caller-chosen key so the watcher can find its bookkeeping
    /// (e.g. the retained proxy object to release).
    pub key: u64,
}

/// Delivered when a watched node's hosting process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeathNotification {
    /// The node that died.
    pub node: NodeId,
    /// Who should be told.
    pub watcher: Pid,
    /// The watcher's key from [`DeathLink`].
    pub key: u64,
}

#[derive(Debug, Clone)]
struct NodeInfo {
    host: Pid,
    label: Cow<'static, str>,
    alive: bool,
}

/// The simulated driver.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct BinderDriver {
    clock: SimClock,
    trace: TraceSink,
    /// Every node ever created; node id `n` is entry `n - 1`.
    nodes: Vec<NodeInfo>,
    log: Vec<IpcRecord>,
    log_enabled: bool,
    log_sorted: bool,
    next_seq: u64,
    death_links: Vec<DeathLink>,
    latency: LatencyModel,
    defense_recording: bool,
    faults: Option<FaultLayer>,
    reject_counts: BTreeMap<&'static str, u64>,
}

impl BinderDriver {
    /// Creates a driver with the default latency model and IPC logging on.
    pub fn new(clock: SimClock, trace: TraceSink) -> Self {
        Self {
            clock,
            trace,
            nodes: Vec::new(),
            log: Vec::new(),
            log_enabled: true,
            log_sorted: true,
            next_seq: 0,
            death_links: Vec::new(),
            latency: LatencyModel::default(),
            defense_recording: false,
            faults: None,
            reject_counts: BTreeMap::new(),
        }
    }

    /// Counts a fail-stop transaction rejection under `reason` — the
    /// per-reason accounting folded into the driver's transaction log.
    /// The framework dispatcher notes every typed `CallStatus` rejection
    /// here (unknown code, parcel underflow, type confusion, stale
    /// binder, oversized payload), and the driver notes its own
    /// [`BinderError::TransactionTooLarge`] refusals, so one ledger
    /// answers "what did malformed traffic get rejected for".
    pub fn note_reject(&mut self, reason: &'static str) {
        *self.reject_counts.entry(reason).or_insert(0) += 1;
    }

    /// Per-reason rejection counters, keyed by the fail-stop reason label.
    pub fn reject_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.reject_counts
    }

    /// Total rejections across all reasons.
    pub fn total_rejects(&self) -> u64 {
        self.reject_counts.values().sum()
    }

    /// Installs a fault layer; subsequent log appends route through it.
    /// Pass an [inactive](FaultLayer::inactive) layer (or never call this)
    /// for a pristine driver.
    pub fn set_fault_layer(&mut self, faults: FaultLayer) {
        self.faults = Some(faults);
    }

    /// Whether the log is still known to be time-ordered. Delay/reorder
    /// faults clear this; readers must then stop assuming sortedness.
    pub fn log_is_sorted(&self) -> bool {
        self.log_sorted
    }

    /// Enables or disables the extra per-transaction recording cost the
    /// paper's extended driver incurs (Figure 10 compares both).
    pub fn set_defense_recording(&mut self, enabled: bool) {
        self.defense_recording = enabled;
    }

    /// Whether defense recording is on.
    pub fn defense_recording(&self) -> bool {
        self.defense_recording
    }

    /// Enables or disables the in-memory transaction log. Long benign
    /// baselines (Figure 4) disable it to bound memory.
    pub fn set_log_enabled(&mut self, enabled: bool) {
        self.log_enabled = enabled;
    }

    /// Registers a new node hosted by `host`.
    pub fn create_node(&mut self, host: Pid, label: impl Into<Cow<'static, str>>) -> NodeId {
        self.nodes.push(NodeInfo {
            host,
            label: label.into(),
            alive: true,
        });
        NodeId(self.nodes.len() as u64)
    }

    fn node(&self, node: NodeId) -> Option<&NodeInfo> {
        let index = usize::try_from(node.0.checked_sub(1)?).ok()?;
        self.nodes.get(index)
    }

    /// Host process of a node.
    ///
    /// # Errors
    ///
    /// [`BinderError::UnknownNode`] if the node was never created,
    /// [`BinderError::DeadNode`] if its host died.
    pub fn node_host(&self, node: NodeId) -> Result<Pid, BinderError> {
        let info = self.node(node).ok_or(BinderError::UnknownNode)?;
        if !info.alive {
            return Err(BinderError::DeadNode);
        }
        Ok(info.host)
    }

    /// Human-readable node label: the service name, or `"callback"` for
    /// a client callback object (its host process names the owner).
    pub fn node_label(&self, node: NodeId) -> Option<&str> {
        self.node(node).map(|i| &*i.label)
    }

    /// Whether the node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.node(node).is_some_and(|i| i.alive)
    }

    /// Routes one transaction: validates the target, advances the virtual
    /// clock by the modelled transaction latency, and appends the
    /// [`IpcRecord`] to the [`log`](Self::log). Returns when the
    /// transaction entered the driver — the true time, which log faults
    /// never alter.
    ///
    /// # Errors
    ///
    /// [`BinderError::UnknownNode`] / [`BinderError::DeadNode`] for bad
    /// targets.
    pub fn record_transaction(
        &mut self,
        from_pid: Pid,
        from_uid: Uid,
        node: NodeId,
        interface: &str,
        method: &str,
        parcel: &Parcel,
    ) -> Result<SimTime, BinderError> {
        self.record_transaction_on_path(from_pid, from_uid, node, interface, method, parcel, 0)
    }

    /// Like [`record_transaction`](Self::record_transaction), tagging the
    /// execution path the handler will take (the §VI extension).
    #[allow(clippy::too_many_arguments)]
    pub fn record_transaction_on_path(
        &mut self,
        from_pid: Pid,
        from_uid: Uid,
        node: NodeId,
        interface: &str,
        method: &str,
        parcel: &Parcel,
        path_id: u8,
    ) -> Result<SimTime, BinderError> {
        let to_pid = self.node_host(node)?;
        let payload_bytes = parcel.payload_size();
        if payload_bytes > TRANSACTION_BUFFER_LIMIT {
            self.note_reject("oversized-payload");
            return Err(BinderError::TransactionTooLarge {
                size: payload_bytes,
                limit: TRANSACTION_BUFFER_LIMIT,
            });
        }
        let cost = self
            .latency
            .transaction_cost(payload_bytes, self.defense_recording);
        let at = self.clock.now();
        self.clock.advance(cost);
        let seq = self.next_seq;
        self.next_seq += 1;
        let record = IpcRecord {
            seq,
            at,
            from_pid,
            from_uid,
            to_pid,
            to_node: node,
            interface: interface.to_owned(),
            method: method.to_owned(),
            payload_bytes,
            path_id,
        };
        if self.trace.is_enabled() {
            self.trace.record(
                at,
                Some(from_pid),
                Some(from_uid),
                "binder.transact",
                record.ipc_type(),
            );
        }
        if self.log_enabled {
            self.append_to_log(record);
        }
        Ok(at)
    }

    /// Appends the *logged copy* of a routed transaction, letting the
    /// fault layer (if any) drop, duplicate, delay, reorder, or jitter it.
    /// The time returned to the sender stays the true one: faults corrupt
    /// what the defender *observes*, never what actually happened.
    fn append_to_log(&mut self, mut logged: IpcRecord) {
        let Some(faults) = self.faults.as_ref().filter(|f| f.is_active()) else {
            self.log.push(logged);
            return;
        };
        logged.at = faults.jitter_ipc_timestamp(logged.at);
        match faults.ipc_log_action() {
            IpcLogAction::Drop => return,
            IpcLogAction::Keep => {}
            IpcLogAction::Duplicate => self.push_logged(logged.clone()),
            IpcLogAction::DelayBy(skew) => logged.at += skew,
            IpcLogAction::Reorder => {
                self.push_logged(logged);
                let n = self.log.len();
                if n >= 2 {
                    self.log.swap(n - 1, n - 2);
                    self.log_sorted = false;
                }
                return;
            }
        }
        self.push_logged(logged);
    }

    fn push_logged(&mut self, record: IpcRecord) {
        if let Some(last) = self.log.last() {
            if record.at < last.at {
                self.log_sorted = false;
            }
        }
        self.log.push(record);
    }

    /// The full transaction log (the defender's `/proc/jgre_ipc_log`).
    pub fn log(&self) -> &[IpcRecord] {
        &self.log
    }

    /// Log records at or after `since`.
    ///
    /// A fault-free log is time-ordered and a partition point avoids a
    /// full scan; once delay/reorder faults have unsorted it, this falls
    /// back to filtering the whole log rather than silently skipping
    /// out-of-place records.
    pub fn log_since(&self, since: SimTime) -> impl Iterator<Item = &IpcRecord> {
        let start = if self.log_sorted {
            self.log.partition_point(|r| r.at < since)
        } else {
            0
        };
        self.log[start..].iter().filter(move |r| r.at >= since)
    }

    /// Drops log records older than `before`, modelling the bounded proc
    /// file.
    pub fn prune_log(&mut self, before: SimTime) {
        if self.log_sorted {
            let start = self.log.partition_point(|r| r.at < before);
            self.log.drain(..start);
        } else {
            self.log.retain(|r| r.at >= before);
            // Whatever unsorted prefix existed has been reconsidered
            // record-by-record; sortedness of the remainder is unknown,
            // so recompute it once here.
            self.log_sorted = self.log.windows(2).all(|w| w[0].at <= w[1].at);
        }
    }

    /// Registers a death recipient: `watcher` will be notified when
    /// `node`'s host dies (`Binder.linkToDeath`). The JNI global reference
    /// the real `JavaDeathRecipient` creates is the *caller's* concern —
    /// the framework pairs this call with an `add_global` on the watcher's
    /// runtime, matching the paper's JGR-entry mapping for `linkToDeath`.
    ///
    /// # Errors
    ///
    /// [`BinderError::UnknownNode`] / [`BinderError::DeadNode`].
    pub fn link_to_death(
        &mut self,
        node: NodeId,
        watcher: Pid,
        key: u64,
    ) -> Result<(), BinderError> {
        self.node_host(node)?;
        self.death_links.push(DeathLink { node, watcher, key });
        Ok(())
    }

    /// Removes a death link (`unlinkToDeath`).
    ///
    /// # Errors
    ///
    /// [`BinderError::UnknownDeathLink`] when no matching link exists.
    pub fn unlink_to_death(
        &mut self,
        node: NodeId,
        watcher: Pid,
        key: u64,
    ) -> Result<(), BinderError> {
        let before = self.death_links.len();
        self.death_links
            .retain(|l| !(l.node == node && l.watcher == watcher && l.key == key));
        if self.death_links.len() == before {
            return Err(BinderError::UnknownDeathLink);
        }
        Ok(())
    }

    /// Number of live death links (for tests and invariants).
    pub fn death_link_count(&self) -> usize {
        self.death_links.len()
    }

    /// Marks every node hosted by `pid` dead and returns the death
    /// notifications to deliver. Links watched *by* the dead process are
    /// dropped.
    pub fn kill_process(&mut self, pid: Pid) -> Vec<DeathNotification> {
        let mut dead_nodes = Vec::new();
        for (index, info) in self.nodes.iter_mut().enumerate() {
            if info.host == pid && info.alive {
                info.alive = false;
                dead_nodes.push(NodeId(index as u64 + 1));
            }
        }
        let mut notifications = Vec::new();
        self.death_links.retain(|link| {
            if link.watcher == pid {
                return false;
            }
            if dead_nodes.contains(&link.node) {
                notifications.push(DeathNotification {
                    node: link.node,
                    watcher: link.watcher,
                    key: link.key,
                });
                return false;
            }
            true
        });
        self.trace.record(
            self.clock.now(),
            Some(pid),
            None,
            "binder.process_death",
            format_args!(
                "nodes={} notifications={}",
                dead_nodes.len(),
                notifications.len()
            ),
        );
        notifications
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> BinderDriver {
        BinderDriver::new(SimClock::new(), TraceSink::disabled())
    }

    #[test]
    fn transaction_routes_to_host() {
        let mut d = driver();
        let node = d.create_node(Pid::new(412), "wifi");
        let mut p = Parcel::new();
        p.write_i32(1);
        d.record_transaction(
            Pid::new(9000),
            Uid::new(10061),
            node,
            "IWifiManager",
            "acquireWifiLock",
            &p,
        )
        .unwrap();
        assert_eq!(d.log().len(), 1);
        let rec = &d.log()[0];
        assert_eq!(rec.to_pid, Pid::new(412));
        assert_eq!(rec.ipc_type(), "IWifiManager.acquireWifiLock");
        assert_eq!(d.node_label(node), Some("wifi"));
        assert_eq!(d.node_label(NodeId::new(0)), None);
    }

    #[test]
    fn transactions_advance_the_clock() {
        let clock = SimClock::new();
        let mut d = BinderDriver::new(clock.clone(), TraceSink::disabled());
        let node = d.create_node(Pid::new(1), "svc");
        let p = Parcel::new();
        d.record_transaction(Pid::new(2), Uid::new(10000), node, "I", "m", &p)
            .unwrap();
        assert!(
            clock.now() > SimTime::ZERO,
            "latency model must advance time"
        );
    }

    #[test]
    fn dead_node_rejects_transactions() {
        let mut d = driver();
        let node = d.create_node(Pid::new(1), "svc");
        d.kill_process(Pid::new(1));
        let p = Parcel::new();
        assert_eq!(
            d.record_transaction(Pid::new(2), Uid::new(10000), node, "I", "m", &p),
            Err(BinderError::DeadNode)
        );
        assert_eq!(d.node_host(node), Err(BinderError::DeadNode));
        assert!(!d.is_alive(node));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut d = driver();
        let p = Parcel::new();
        assert_eq!(
            d.record_transaction(Pid::new(2), Uid::new(10000), NodeId::new(99), "I", "m", &p),
            Err(BinderError::UnknownNode)
        );
    }

    #[test]
    fn death_links_fire_on_process_death() {
        let mut d = driver();
        let app_node = d.create_node(Pid::new(9000), "callback");
        d.link_to_death(app_node, Pid::new(412), 77).unwrap();
        assert_eq!(d.death_link_count(), 1);
        let notes = d.kill_process(Pid::new(9000));
        assert_eq!(
            notes,
            vec![DeathNotification {
                node: app_node,
                watcher: Pid::new(412),
                key: 77
            }]
        );
        assert_eq!(d.death_link_count(), 0);
    }

    #[test]
    fn unlink_removes_exactly_one_registration() {
        let mut d = driver();
        let node = d.create_node(Pid::new(9000), "cb");
        d.link_to_death(node, Pid::new(412), 1).unwrap();
        d.link_to_death(node, Pid::new(412), 2).unwrap();
        d.unlink_to_death(node, Pid::new(412), 1).unwrap();
        assert_eq!(d.death_link_count(), 1);
        assert_eq!(
            d.unlink_to_death(node, Pid::new(412), 1),
            Err(BinderError::UnknownDeathLink)
        );
        let notes = d.kill_process(Pid::new(9000));
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].key, 2);
    }

    #[test]
    fn watcher_death_drops_its_links() {
        let mut d = driver();
        let node = d.create_node(Pid::new(9000), "cb");
        d.link_to_death(node, Pid::new(412), 1).unwrap();
        d.kill_process(Pid::new(412));
        assert_eq!(d.death_link_count(), 0);
        // The watched node's later death notifies nobody.
        assert!(d.kill_process(Pid::new(9000)).is_empty());
    }

    #[test]
    fn log_since_and_prune() {
        let clock = SimClock::new();
        let mut d = BinderDriver::new(clock.clone(), TraceSink::disabled());
        let node = d.create_node(Pid::new(1), "svc");
        let p = Parcel::new();
        let mut stamps = Vec::new();
        for _ in 0..5 {
            let at = d
                .record_transaction(Pid::new(2), Uid::new(10000), node, "I", "m", &p)
                .unwrap();
            stamps.push(at);
        }
        let mid = stamps[2];
        assert_eq!(d.log_since(mid).count(), 3);
        d.prune_log(mid);
        assert_eq!(d.log().len(), 3);
        assert_eq!(d.log()[0].at, mid);
    }

    #[test]
    fn oversized_transactions_are_rejected() {
        let mut d = driver();
        let node = d.create_node(Pid::new(1), "svc");
        let mut p = Parcel::new();
        p.write_blob(2 * 1024 * 1024);
        assert!(matches!(
            d.record_transaction(Pid::new(2), Uid::new(10_000), node, "I", "m", &p),
            Err(BinderError::TransactionTooLarge { .. })
        ));
        assert!(d.log().is_empty(), "rejected transactions are not logged");
        assert_eq!(d.reject_counts().get("oversized-payload"), Some(&1));
        assert_eq!(d.total_rejects(), 1);
        // Just under the limit is fine.
        let mut p = Parcel::new();
        p.write_blob(1024 * 1024 - 64);
        assert!(d
            .record_transaction(Pid::new(2), Uid::new(10_000), node, "I", "m", &p)
            .is_ok());
    }

    #[test]
    fn seq_numbers_are_dense_and_monotonic() {
        let mut d = driver();
        let node = d.create_node(Pid::new(1), "svc");
        let p = Parcel::new();
        for expected in 0..4u64 {
            d.record_transaction(Pid::new(2), Uid::new(10000), node, "I", "m", &p)
                .unwrap();
            assert_eq!(d.log().last().map(|r| r.seq), Some(expected));
        }
    }

    #[test]
    fn inactive_fault_layer_changes_nothing() {
        let mut faulted = driver();
        faulted.set_fault_layer(FaultLayer::inactive());
        let mut plain = driver();
        let pn = plain.create_node(Pid::new(1), "svc");
        let fnode = faulted.create_node(Pid::new(1), "svc");
        let p = Parcel::new();
        for _ in 0..8 {
            plain
                .record_transaction(Pid::new(2), Uid::new(10000), pn, "I", "m", &p)
                .unwrap();
            faulted
                .record_transaction(Pid::new(2), Uid::new(10000), fnode, "I", "m", &p)
                .unwrap();
        }
        assert_eq!(plain.log(), faulted.log());
        assert!(faulted.log_is_sorted());
    }

    #[test]
    fn drop_faults_leave_seq_gaps() {
        use jgre_sim::{FaultIntensity, FaultKind, FaultPlan};
        let mut d = driver();
        d.set_fault_layer(FaultLayer::new(
            FaultPlan::single(FaultKind::IpcDrop, FaultIntensity::Severe),
            3,
        ));
        let node = d.create_node(Pid::new(1), "svc");
        let p = Parcel::new();
        for _ in 0..200 {
            d.record_transaction(Pid::new(2), Uid::new(10000), node, "I", "m", &p)
                .unwrap();
        }
        assert!(d.log().len() < 200, "severe drop rate must lose records");
        // Surviving records keep their original (gapped) sequence numbers.
        let seqs: Vec<u64> = d.log().iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert!(*seqs.last().unwrap() > seqs.len() as u64 - 1, "gaps exist");
    }

    #[test]
    fn reorder_faults_unsort_the_log_and_readers_cope() {
        use jgre_sim::{FaultIntensity, FaultKind, FaultPlan};
        let mut d = driver();
        d.set_fault_layer(FaultLayer::new(
            FaultPlan::single(FaultKind::IpcReorder, FaultIntensity::Severe),
            5,
        ));
        let node = d.create_node(Pid::new(1), "svc");
        let p = Parcel::new();
        let mut stamps = Vec::new();
        for _ in 0..100 {
            let at = d
                .record_transaction(Pid::new(2), Uid::new(10000), node, "I", "m", &p)
                .unwrap();
            stamps.push(at);
        }
        assert!(!d.log_is_sorted(), "severe reorder must unsort the log");
        let mid = stamps[50];
        let expected = d.log().iter().filter(|r| r.at >= mid).count();
        assert_eq!(d.log_since(mid).count(), expected);
        d.prune_log(mid);
        assert_eq!(d.log().len(), expected);
        assert!(d.log().iter().all(|r| r.at >= mid));
    }

    #[test]
    fn log_can_be_disabled() {
        let mut d = driver();
        d.set_log_enabled(false);
        let node = d.create_node(Pid::new(1), "svc");
        let p = Parcel::new();
        d.record_transaction(Pid::new(2), Uid::new(10000), node, "I", "m", &p)
            .unwrap();
        assert!(d.log().is_empty());
    }
}
