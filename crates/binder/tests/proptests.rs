//! Property-based tests for parcels and the driver.

use jgre_binder::{BinderDriver, BinderError, NodeId, Parcel, ParcelValue};
use jgre_sim::{Pid, SimClock, SimTime, TraceSink, Uid};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = ParcelValue> {
    prop_oneof![
        any::<i32>().prop_map(ParcelValue::I32),
        any::<i64>().prop_map(ParcelValue::I64),
        "[a-zA-Z0-9 ]{0,40}".prop_map(ParcelValue::String),
        (0usize..100_000).prop_map(ParcelValue::Blob),
        (1u64..1_000).prop_map(|n| ParcelValue::StrongBinder(NodeId::new(n))),
    ]
}

proptest! {
    /// Whatever is written to a parcel reads back in order with the same
    /// types and values.
    #[test]
    fn parcel_roundtrip(values in proptest::collection::vec(value_strategy(), 0..40)) {
        let mut parcel = Parcel::new();
        for v in &values {
            match v {
                ParcelValue::I32(x) => { parcel.write_i32(*x); }
                ParcelValue::I64(x) => { parcel.write_i64(*x); }
                ParcelValue::String(s) => { parcel.write_string(s.clone()); }
                ParcelValue::Blob(n) => { parcel.write_blob(*n); }
                ParcelValue::StrongBinder(n) => { parcel.write_strong_binder(*n); }
            }
        }
        prop_assert_eq!(parcel.len(), values.len());
        for v in &values {
            match v {
                ParcelValue::I32(x) => prop_assert_eq!(parcel.read_i32().unwrap(), *x),
                ParcelValue::I64(x) => prop_assert_eq!(parcel.read_i64().unwrap(), *x),
                ParcelValue::String(s) => prop_assert_eq!(parcel.read_string().unwrap(), s.as_str()),
                ParcelValue::Blob(n) => prop_assert_eq!(parcel.read_blob().unwrap(), *n),
                ParcelValue::StrongBinder(n) => {
                    prop_assert_eq!(parcel.read_strong_binder().unwrap(), *n);
                }
            }
        }
        prop_assert_eq!(parcel.read_i32(), Err(BinderError::ParcelUnderflow));
        // Size model: sum of the parts, always.
        let expected: usize = values.iter().map(ParcelValue::byte_size).sum();
        prop_assert_eq!(parcel.payload_size(), expected);
        // Strong binders extracted in order.
        let binders: Vec<NodeId> = values.iter().filter_map(|v| match v {
            ParcelValue::StrongBinder(n) => Some(*n),
            _ => None,
        }).collect();
        prop_assert_eq!(parcel.strong_binders(), binders);
    }

    /// The driver's log is always time-ordered and exactly one record per
    /// accepted transaction; killed hosts reject everything afterwards.
    #[test]
    fn driver_log_is_ordered_and_complete(
        ops in proptest::collection::vec((0u8..3, 0u64..4), 1..120)
    ) {
        let clock = SimClock::new();
        let mut driver = BinderDriver::new(clock, TraceSink::disabled());
        let hosts = [Pid::new(1), Pid::new(2), Pid::new(3), Pid::new(4)];
        let nodes: Vec<NodeId> = hosts
            .iter()
            .map(|&h| driver.create_node(h, format!("svc-{h}")))
            .collect();
        let mut killed = [false; 4];
        let mut accepted = 0usize;
        for (op, which) in ops {
            let i = which as usize % nodes.len();
            match op {
                0 | 1 => {
                    let parcel = Parcel::new();
                    let result = driver.record_transaction(
                        Pid::new(100), Uid::new(10_000), nodes[i], "I", "m", &parcel);
                    if killed[i] {
                        prop_assert_eq!(result, Err(BinderError::DeadNode));
                    } else {
                        prop_assert!(result.is_ok());
                        accepted += 1;
                    }
                }
                _ => {
                    driver.kill_process(hosts[i]);
                    killed[i] = true;
                }
            }
        }
        prop_assert_eq!(driver.log().len(), accepted);
        let mut last = SimTime::ZERO;
        for record in driver.log() {
            prop_assert!(record.at >= last);
            last = record.at;
        }
    }

    /// Death links: every link registered for a node that later dies is
    /// delivered exactly once; links from dead watchers never fire.
    #[test]
    fn death_links_fire_exactly_once(
        links in proptest::collection::vec((0u64..6, 1u32..5), 0..40)
    ) {
        let clock = SimClock::new();
        let mut driver = BinderDriver::new(clock, TraceSink::disabled());
        let owner = Pid::new(9);
        let nodes: Vec<NodeId> =
            (0..6).map(|i| driver.create_node(owner, format!("cb{i}"))).collect();
        let mut expected = 0usize;
        for (node_idx, watcher) in &links {
            let node = nodes[*node_idx as usize];
            driver.link_to_death(node, Pid::new(*watcher), *node_idx).unwrap();
            expected += 1;
        }
        let notifications = driver.kill_process(owner);
        prop_assert_eq!(notifications.len(), expected);
        // A second kill is a no-op.
        prop_assert!(driver.kill_process(owner).is_empty());
        prop_assert_eq!(driver.death_link_count(), 0);
    }
}
