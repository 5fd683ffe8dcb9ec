//! High-level API for the Totem redundant ring protocol.
//!
//! This crate composes the two protocol layers —
//! [`totem_srp::SrpNode`] (ordering, reliability, membership) below
//! the application and [`totem_rrp::RrpLayer`] (redundant networks)
//! below the SRP — into a single [`TotemNode`] state machine, and
//! provides two hosts for it:
//!
//! * [`SimCluster`] — a whole cluster inside the deterministic
//!   discrete-event simulator (`totem-sim`): the substrate for every
//!   test and for the paper's performance figures;
//! * [`runtime`] — a threaded real-time host driving one node over a
//!   real [`totem_transport::Transport`] (UDP or in-memory).
//!
//! # Example: four nodes, two networks, one network dies
//!
//! ```
//! use totem_cluster::{ClusterConfig, SimCluster};
//! use totem_rrp::ReplicationStyle;
//! use totem_sim::{FaultCommand, SimTime};
//! use totem_wire::NetworkId;
//!
//! let cfg = ClusterConfig::new(4, ReplicationStyle::Active);
//! let mut cluster = SimCluster::new(cfg);
//!
//! // Warm up, then kill network 0 entirely.
//! cluster.run_until(SimTime::from_millis(50));
//! cluster.schedule_fault(
//!     SimTime::from_millis(50),
//!     FaultCommand::NetworkDown { net: NetworkId::new(0), down: true },
//! );
//!
//! // The application keeps working through network 1.
//! cluster.submit(0, bytes::Bytes::from_static(b"still here"));
//! cluster.run_until(SimTime::from_secs(3));
//! for node in 0..4 {
//!     assert!(cluster
//!         .delivered(node)
//!         .iter()
//!         .any(|d| &d.data[..] == b"still here"));
//! }
//! // ...and the fault was reported to the operator on every node.
//! assert!((0..4).all(|n| !cluster.faults(n).is_empty()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod chaos;
pub mod mc;
pub mod node;
pub mod runtime;
pub mod scenarios;
pub mod sim_cluster;
pub mod toml;

pub use backend::{BackendNode, Broadcast};
pub use chaos::{ChaosReport, ChaosSchedule, ScheduledCommand};
pub use mc::{Counterexample, McOptions, McReport};
pub use node::{NodeOutput, TotemNode};
pub use runtime::{
    collect_deliveries, spawn_node, spawn_node_with, RuntimeConfig, RuntimeEvent, RuntimeHandle,
    StartMode,
};
pub use scenarios::{run_all, ScenarioReport};
pub use sim_cluster::{ClusterConfig, ClusterCounters, SimCluster};
