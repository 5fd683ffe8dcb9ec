//! The reusable EVS invariant oracle.
//!
//! Every safety property the fault-injection tests assert lives here,
//! expressed as functions from a finished [`SimCluster`] to a list of
//! [`Violation`]s — so the same checks serve `#[test]` assertions (via
//! the panicking wrappers [`assert_safety`] and
//! [`assert_identical_delivery`]) and the chaos harness (which wants
//! the violations as data, to drive shrinking).
//!
//! The central check is **agreement in the sense of extended virtual
//! synchrony**: any two nodes order the messages they have in common
//! identically. Full prefix equality would be too strong — while
//! partitioned, each component legitimately delivers its own members'
//! messages, so two nodes' logs may interleave differently once the
//! partition heals. [`check_prefix_equality`] implements that
//! deliberately-too-strong check anyway, as a known-bad oracle used to
//! demonstrate the shrinker on a reproducible false positive.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;
use totem_wire::NodeId;

use crate::sim_cluster::SimCluster;

/// One oracle violation: a safety or liveness property that did not
/// hold on the observed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A node delivered the same `(sender, payload)` twice.
    Integrity {
        /// The delivering node.
        node: usize,
        /// The duplicated payload, printable-escaped.
        payload: String,
    },
    /// A node delivered one sender's messages out of submission order.
    FifoOrder {
        /// The delivering node.
        node: usize,
        /// The sender whose messages were reordered.
        sender: NodeId,
        /// Counter delivered first.
        prev: u64,
        /// The (smaller or equal) counter delivered after it.
        next: u64,
    },
    /// A payload did not carry the `...-<counter>` suffix the FIFO
    /// check keys on — the labeled replacement for what used to be a
    /// raw `unwrap()`/`expect()` panic in the test helpers.
    MalformedPayload {
        /// The delivering node.
        node: usize,
        /// The offending payload, printable-escaped.
        payload: String,
    },
    /// Two nodes order their common messages differently (the EVS
    /// agreement property).
    Agreement {
        /// First node.
        a: usize,
        /// Second node.
        b: usize,
        /// Index into the common subsequence where they diverge.
        position: usize,
    },
    /// Two nodes' full delivery logs are not prefix-related — only a
    /// violation under the deliberately-too-strong
    /// [`check_prefix_equality`] oracle.
    PrefixEquality {
        /// First node.
        a: usize,
        /// Second node.
        b: usize,
    },
    /// A node reported a network faulty although no fault command ever
    /// targeted that network and no processor crashed.
    FaultReportUnsound {
        /// The reporting node.
        node: usize,
        /// The network it blamed.
        net: u8,
    },
    /// The cluster failed to re-converge after all faults healed.
    NotConverged {
        /// Human-readable description of what was still wrong.
        detail: String,
    },
    /// A per-state structural invariant failed: malformed membership
    /// view, ring-identity disagreement, or a non-monotone ring
    /// sequence. Raised by the bounded model checker's
    /// per-state checks ([`check_view_sanity`] and the explorer's
    /// parent/child sequence comparison), not by the end-of-run oracle.
    StateInvariant {
        /// The offending node.
        node: usize,
        /// Human-readable description of the broken invariant.
        detail: String,
    },
}

impl Violation {
    /// A stable discriminant name, used by the shrinker to decide
    /// whether a shrunk schedule reproduces "the same" failure.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Integrity { .. } => "integrity",
            Violation::FifoOrder { .. } => "fifo-order",
            Violation::MalformedPayload { .. } => "malformed-payload",
            Violation::Agreement { .. } => "agreement",
            Violation::PrefixEquality { .. } => "prefix-equality",
            Violation::FaultReportUnsound { .. } => "fault-report-unsound",
            Violation::NotConverged { .. } => "not-converged",
            Violation::StateInvariant { .. } => "state-invariant",
        }
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::Integrity { node, payload } => {
                write!(f, "integrity: node {node} delivered {payload:?} twice")
            }
            Violation::FifoOrder { node, sender, prev, next } => write!(
                f,
                "fifo-order: node {node} delivered sender {sender} counter {next} after {prev}"
            ),
            Violation::MalformedPayload { node, payload } => write!(
                f,
                "malformed-payload: node {node} delivered {payload:?} without a counter suffix"
            ),
            Violation::Agreement { a, b, position } => write!(
                f,
                "agreement: nodes {a} and {b} order their common messages differently \
                 (first divergence at common index {position})"
            ),
            Violation::PrefixEquality { a, b } => {
                write!(f, "prefix-equality: nodes {a} and {b} delivery logs are not prefix-related")
            }
            Violation::FaultReportUnsound { node, net } => write!(
                f,
                "fault-report-unsound: node {node} declared network {net} faulty \
                 with no fault injected there and no crash in the run"
            ),
            Violation::NotConverged { detail } => write!(f, "not-converged: {detail}"),
            Violation::StateInvariant { node, detail } => {
                write!(f, "state-invariant: node {node}: {detail}")
            }
        }
    }
}

fn printable(data: &Bytes) -> String {
    String::from_utf8_lossy(data).into_owned()
}

fn orders(cluster: &SimCluster, nodes: usize) -> Vec<Vec<(NodeId, Bytes)>> {
    (0..nodes)
        .map(|n| cluster.delivered(n).iter().map(|d| (d.sender, d.data.clone())).collect())
        .collect()
}

/// The per-sender counter a workload payload carries as its
/// `...-<counter>` suffix, if present.
pub fn payload_counter(data: &Bytes) -> Option<u64> {
    String::from_utf8_lossy(data).rsplit('-').next()?.parse().ok()
}

fn integrity_of(orders: &[Vec<(NodeId, Bytes)>]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (n, order) in orders.iter().enumerate() {
        let mut seen = HashSet::new();
        for item in order {
            if !seen.insert(item.clone()) {
                violations.push(Violation::Integrity { node: n, payload: printable(&item.1) });
            }
        }
    }
    violations
}

/// Integrity: no node delivers the same `(sender, payload)` twice.
pub fn check_integrity(cluster: &SimCluster, nodes: usize) -> Vec<Violation> {
    integrity_of(&orders(cluster, nodes))
}

fn fifo_of(orders: &[Vec<(NodeId, Bytes)>]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (n, order) in orders.iter().enumerate() {
        let mut last: HashMap<NodeId, u64> = HashMap::new();
        for (sender, data) in order {
            let Some(counter) = payload_counter(data) else {
                violations.push(Violation::MalformedPayload { node: n, payload: printable(data) });
                continue;
            };
            if let Some(prev) = last.insert(*sender, counter) {
                if prev >= counter {
                    violations.push(Violation::FifoOrder {
                        node: n,
                        sender: *sender,
                        prev,
                        next: counter,
                    });
                }
            }
        }
    }
    violations
}

/// Per-sender FIFO: each node delivers one sender's messages in
/// strictly increasing counter order (payloads embed a per-sender
/// counter as a `-<n>` suffix).
pub fn check_fifo(cluster: &SimCluster, nodes: usize) -> Vec<Violation> {
    fifo_of(&orders(cluster, nodes))
}

fn agreement_of(orders: &[Vec<(NodeId, Bytes)>]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let nodes = orders.len();
    for a in 0..nodes {
        for b in a + 1..nodes {
            let set_a: HashSet<_> = orders[a].iter().collect();
            let set_b: HashSet<_> = orders[b].iter().collect();
            let common_a: Vec<_> = orders[a].iter().filter(|x| set_b.contains(x)).collect();
            let common_b: Vec<_> = orders[b].iter().filter(|x| set_a.contains(x)).collect();
            if common_a != common_b {
                let position = common_a.iter().zip(&common_b).take_while(|(x, y)| x == y).count();
                violations.push(Violation::Agreement { a, b, position });
            }
        }
    }
    violations
}

/// Agreement on common messages (extended virtual synchrony): any two
/// nodes deliver the messages they both have in the same relative
/// order.
pub fn check_agreement(cluster: &SimCluster, nodes: usize) -> Vec<Violation> {
    agreement_of(&orders(cluster, nodes))
}

/// The reconvergence oracle's delivery check: EVS safety re-armed
/// after self-stabilization. Integrity, per-sender FIFO, and agreement
/// are checked only on each node's delivery-log suffix starting at
/// `from[n]` (the log length at the final heal). The pre-stabilization
/// prefix is exempt by design — while running on corrupted state a
/// node is not a correct processor in the self-stabilization sense,
/// and a rewound delivery watermark may cause a bounded, benign
/// re-delivery before the node routes itself through Gather. After
/// stabilization the full EVS contract must hold again, with no
/// further exemptions.
pub fn check_suffix_safety(cluster: &SimCluster, nodes: usize, from: &[usize]) -> Vec<Violation> {
    let suffixes: Vec<Vec<(NodeId, Bytes)>> = (0..nodes)
        .map(|n| {
            let skip = from.get(n).copied().unwrap_or(0);
            cluster.delivered(n).iter().skip(skip).map(|d| (d.sender, d.data.clone())).collect()
        })
        .collect();
    let mut violations = integrity_of(&suffixes);
    violations.extend(fifo_of(&suffixes));
    violations.extend(agreement_of(&suffixes));
    violations
}

/// The deliberately-too-strong check: requires any two nodes' **full**
/// delivery logs to be prefix-related. Under EVS this is false — a
/// healed partition leaves each side with its own messages ordered
/// ahead of the other side's — so this oracle produces reproducible
/// false positives. It exists to exercise and demonstrate the
/// shrinker; do not use it as a correctness gate.
pub fn check_prefix_equality(cluster: &SimCluster, nodes: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    let orders = orders(cluster, nodes);
    for a in 0..nodes {
        for b in a + 1..nodes {
            let len = orders[a].len().min(orders[b].len());
            if orders[a][..len] != orders[b][..len] {
                violations.push(Violation::PrefixEquality { a, b });
            }
        }
    }
    violations
}

/// All EVS safety checks together: integrity, per-sender FIFO, and
/// agreement on common messages.
pub fn check_safety(cluster: &SimCluster, nodes: usize) -> Vec<Violation> {
    let mut violations = check_integrity(cluster, nodes);
    violations.extend(check_fifo(cluster, nodes));
    violations.extend(check_agreement(cluster, nodes));
    violations
}

/// Fault-report soundness: a node may declare network `k` faulty only
/// if some fault command targeted `k`, or a processor crashed during
/// the run (a peer's crash surfaces as token timeouts that the
/// monitors can attribute to any network).
pub fn check_fault_reports(
    cluster: &SimCluster,
    nodes: usize,
    targeted_nets: &[bool],
    any_crash: bool,
) -> Vec<Violation> {
    if any_crash {
        return Vec::new();
    }
    let mut violations = Vec::new();
    for n in 0..nodes {
        for report in cluster.faults(n) {
            let net = report.net.as_u8();
            if !targeted_nets.get(net as usize).copied().unwrap_or(false) {
                violations.push(Violation::FaultReportUnsound { node: n, net });
            }
        }
    }
    violations
}

/// Per-state membership/view sanity, checked at every explored state
/// by the bounded model checker (`crate::mc`):
///
/// * an alive node in the `Operational` state has a membership view;
/// * that view contains the node itself, names only in-range
///   processors, and is sorted ascending with no duplicates (the SRP
///   ring order);
/// * any two alive operational nodes reporting the **same** ring
///   identity report the **same** membership (a ring id names exactly
///   one membership — disagreement here is a split-brain view).
pub fn check_view_sanity(cluster: &SimCluster, nodes: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut by_ring: HashMap<totem_wire::RingId, (usize, Vec<NodeId>)> = HashMap::new();
    for n in 0..nodes {
        if !cluster.is_alive(n) || cluster.srp_state(n) != totem_srp::SrpState::Operational {
            continue;
        }
        let Some(members) = cluster.members(n) else {
            violations.push(Violation::StateInvariant {
                node: n,
                detail: "operational but reports no membership view".into(),
            });
            continue;
        };
        let me = NodeId::new(n as u16);
        if !members.contains(&me) {
            violations.push(Violation::StateInvariant {
                node: n,
                detail: format!("operational view {members:?} does not contain the node itself"),
            });
        }
        if members.iter().any(|m| m.index() >= nodes) {
            violations.push(Violation::StateInvariant {
                node: n,
                detail: format!("view {members:?} names an out-of-range processor"),
            });
        }
        if members.windows(2).any(|w| w[0] >= w[1]) {
            violations.push(Violation::StateInvariant {
                node: n,
                detail: format!("view {members:?} is not strictly ascending ring order"),
            });
        }
        let Some(ring) = cluster.ring_id(n) else {
            violations.push(Violation::StateInvariant {
                node: n,
                detail: "operational but reports no ring identity".into(),
            });
            continue;
        };
        match by_ring.get(&ring) {
            None => {
                by_ring.insert(ring, (n, members));
            }
            Some((first, reference)) => {
                if *reference != members {
                    violations.push(Violation::StateInvariant {
                        node: n,
                        detail: format!(
                            "ring {ring:?} has two memberships: node {first} sees {reference:?}, \
                             node {n} sees {members:?}"
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Strict total-delivery agreement: every node delivered exactly
/// `expect` messages, all in the identical order. This is the right
/// check for scenarios without partitions or crashes, where full
/// agreement (not just EVS agreement) is guaranteed.
pub fn check_identical_delivery(
    cluster: &SimCluster,
    nodes: usize,
    expect: usize,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let reference: Vec<Bytes> = cluster.delivered(0).iter().map(|d| d.data.clone()).collect();
    if reference.len() != expect {
        violations.push(Violation::NotConverged {
            detail: format!("node 0 delivered {} of {expect} messages", reference.len()),
        });
    }
    for n in 1..nodes {
        let o: Vec<Bytes> = cluster.delivered(n).iter().map(|d| d.data.clone()).collect();
        if o != reference {
            violations.push(Violation::Agreement { a: 0, b: n, position: 0 });
        }
    }
    violations
}

/// Incremental EVS oracle with a bounded retained-delivery horizon,
/// for soak runs whose full delivery logs would otherwise grow with
/// the run length.
///
/// [`RollingOracle::scan`] consumes every delivery the cluster has
/// recorded since the previous scan, checks per-sender FIFO against
/// persistent high-water counters, checks integrity and cross-node
/// agreement over a retained tail of the most recent `window`
/// deliveries per node, then prunes the cluster's own logs down to
/// the window. Peak retained state is O(nodes × window) regardless of
/// how many hours the soak simulates.
///
/// The horizon is a real trade-off, stated plainly: a duplicate
/// arriving more than `window` deliveries after its first copy, or an
/// agreement divergence between messages that have already left both
/// tails, is invisible here. The bounded chaos suite's full-log
/// oracle covers those regimes.
#[derive(Debug)]
pub struct RollingOracle {
    window: usize,
    /// Per-node, per-sender highest counter delivered (persistent
    /// FIFO state — O(nodes × senders), not O(deliveries)).
    fifo: Vec<HashMap<NodeId, u64>>,
    /// Per-node retained tail of recent deliveries, in order.
    tails: Vec<VecDeque<(NodeId, Bytes)>>,
    /// Multiset of the tail contents (windowed duplicate detection).
    seen: Vec<HashMap<(NodeId, Bytes), u32>>,
    /// Per-node index of the first not-yet-consumed entry in the
    /// cluster's (pruned) delivery log.
    cursor: Vec<usize>,
    /// Deliveries ever consumed per node.
    consumed: Vec<u64>,
}

impl RollingOracle {
    /// An oracle for `nodes` nodes retaining the last `window`
    /// deliveries per node.
    pub fn new(nodes: usize, window: usize) -> Self {
        RollingOracle {
            window: window.max(1),
            fifo: vec![HashMap::new(); nodes],
            tails: vec![VecDeque::new(); nodes],
            seen: vec![HashMap::new(); nodes],
            cursor: vec![0; nodes],
            consumed: vec![0; nodes],
        }
    }

    fn push_tail(&mut self, n: usize, item: (NodeId, Bytes)) -> bool {
        let dup = {
            let count = self.seen[n].entry(item.clone()).or_insert(0);
            *count += 1;
            *count > 1
        };
        self.tails[n].push_back(item);
        if self.tails[n].len() > self.window {
            let old = self.tails[n].pop_front().expect("tail over window is non-empty");
            if let Some(count) = self.seen[n].get_mut(&old) {
                *count -= 1;
                if *count == 0 {
                    self.seen[n].remove(&old);
                }
            }
        }
        dup
    }

    /// Consumes all deliveries since the previous scan, returns any
    /// violations, and prunes the cluster's delivery logs to the
    /// window.
    pub fn scan(&mut self, cluster: &mut SimCluster) -> Vec<Violation> {
        let nodes = self.tails.len();
        let mut violations = Vec::new();
        for n in 0..nodes {
            let fresh: Vec<(NodeId, Bytes)> = cluster.delivered(n)[self.cursor[n]..]
                .iter()
                .map(|d| (d.sender, d.data.clone()))
                .collect();
            for (sender, data) in fresh {
                match payload_counter(&data) {
                    None => violations
                        .push(Violation::MalformedPayload { node: n, payload: printable(&data) }),
                    Some(counter) => {
                        if let Some(&prev) = self.fifo[n].get(&sender) {
                            if prev >= counter {
                                violations.push(Violation::FifoOrder {
                                    node: n,
                                    sender,
                                    prev,
                                    next: counter,
                                });
                            }
                        }
                        self.fifo[n].insert(sender, counter);
                    }
                }
                if self.push_tail(n, (sender, data.clone())) {
                    violations.push(Violation::Integrity { node: n, payload: printable(&data) });
                }
                self.consumed[n] += 1;
            }
            self.cursor[n] = cluster.delivered(n).len();
            self.cursor[n] -= cluster.prune_delivered(n, self.window);
        }
        let tails: Vec<Vec<(NodeId, Bytes)>> =
            self.tails.iter().map(|t| t.iter().cloned().collect()).collect();
        violations.extend(agreement_of(&tails));
        violations
    }

    /// Re-arms the oracle after an injected state corruption: consumes
    /// and exempts everything delivered so far (the stabilization
    /// interval), clears the FIFO marks and retained tails, and
    /// resumes checking from the next delivery — the rolling analogue
    /// of [`check_suffix_safety`]'s pre-stabilization exemption.
    pub fn rearm(&mut self, cluster: &mut SimCluster) {
        for n in 0..self.tails.len() {
            let len = cluster.delivered(n).len();
            self.consumed[n] += (len - self.cursor[n]) as u64;
            cluster.prune_delivered(n, 0);
            self.cursor[n] = 0;
            self.tails[n].clear();
            self.seen[n].clear();
            self.fifo[n].clear();
        }
    }

    /// Deliveries ever consumed across all nodes.
    pub fn total_consumed(&self) -> u64 {
        self.consumed.iter().sum()
    }

    /// Deliveries currently retained — oracle tails plus the cluster's
    /// pruned logs. The O(window) memory test bounds this quantity's
    /// peak over a long run.
    pub fn retained(&self, cluster: &SimCluster) -> usize {
        (0..self.tails.len()).map(|n| self.tails[n].len() + cluster.delivered(n).len()).sum()
    }
}

/// Panics with every violation listed if the EVS safety checks fail —
/// the shared helper behind the fault-injection tests' assertions.
///
/// # Panics
///
/// Panics if [`check_safety`] reports any violation.
pub fn assert_safety(cluster: &SimCluster, nodes: usize) {
    let violations = check_safety(cluster, nodes);
    assert!(
        violations.is_empty(),
        "EVS safety violated:\n{}",
        violations.iter().map(|v| format!("  - {v}")).collect::<Vec<_>>().join("\n")
    );
}

/// Panics unless every node delivered exactly `expect` messages in the
/// identical order — the shared helper behind the network-fault tests'
/// assertions.
///
/// # Panics
///
/// Panics if [`check_identical_delivery`] reports any violation.
pub fn assert_identical_delivery(cluster: &SimCluster, nodes: usize, expect: usize) {
    let violations = check_identical_delivery(cluster, nodes, expect);
    assert!(
        violations.is_empty(),
        "identical delivery violated:\n{}",
        violations.iter().map(|v| format!("  - {v}")).collect::<Vec<_>>().join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_cluster::ClusterConfig;
    use totem_rrp::ReplicationStyle;
    use totem_sim::SimTime;

    fn healthy_cluster() -> (SimCluster, usize) {
        let mut c = SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).with_seed(11));
        for i in 0..3 {
            for k in 0..4u64 {
                c.submit(i, Bytes::from(format!("s{i}-{k}")));
            }
        }
        c.run_until(SimTime::from_secs(1));
        (c, 3)
    }

    #[test]
    fn healthy_cluster_passes_every_check() {
        let (c, n) = healthy_cluster();
        assert!(check_safety(&c, n).is_empty());
        assert!(check_prefix_equality(&c, n).is_empty());
        assert!(check_fault_reports(&c, n, &[false, false], false).is_empty());
        assert!(check_identical_delivery(&c, n, 12).is_empty());
        assert_safety(&c, n);
        assert_identical_delivery(&c, n, 12);
    }

    #[test]
    fn payload_counter_parses_suffix_or_reports_none() {
        assert_eq!(payload_counter(&Bytes::from_static(b"s2-17")), Some(17));
        assert_eq!(payload_counter(&Bytes::from_static(b"storm7/3-0")), Some(0));
        assert_eq!(payload_counter(&Bytes::from_static(b"no counter here")), None);
        assert_eq!(payload_counter(&Bytes::from_static(b"trailing-")), None);
    }

    #[test]
    fn malformed_payload_is_a_labeled_violation_not_a_panic() {
        let mut c = SimCluster::new(ClusterConfig::new(2, ReplicationStyle::Single).with_seed(12));
        c.submit(0, Bytes::from_static(b"no counter here"));
        c.run_until(SimTime::from_millis(500));
        let violations = check_fifo(&c, 2);
        assert!(
            violations.iter().any(|v| matches!(v, Violation::MalformedPayload { .. })),
            "expected a MalformedPayload violation, got {violations:?}"
        );
    }

    #[test]
    fn fault_report_soundness_respects_targets_and_crashes() {
        let (c, n) = healthy_cluster();
        // No reports in a healthy run, so nothing is unsound…
        assert!(check_fault_reports(&c, n, &[false, false], false).is_empty());
        // …and the crash amnesty suppresses everything wholesale.
        assert!(check_fault_reports(&c, n, &[false, false], true).is_empty());
    }

    #[test]
    fn identical_delivery_flags_shortfall() {
        let (c, n) = healthy_cluster();
        let violations = check_identical_delivery(&c, n, 13);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind(), "not-converged");
    }

    #[test]
    fn suffix_safety_exempts_the_pre_stabilization_prefix() {
        let (c, n) = healthy_cluster();
        // A healthy run passes from any horizon: the zero horizon is
        // the full-log check, the full horizon leaves empty suffixes.
        assert!(check_suffix_safety(&c, n, &[0, 0, 0]).is_empty());
        let lens: Vec<usize> = (0..n).map(|i| c.delivered(i).len()).collect();
        assert!(check_suffix_safety(&c, n, &lens).is_empty());
    }

    #[test]
    fn rolling_oracle_keeps_retained_state_bounded_by_window() {
        let window = 32;
        let mut c = SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).with_seed(21));
        let mut oracle = RollingOracle::new(3, window);
        let mut counters = [0u64; 3];
        let mut peak = 0usize;
        let mut now = 0u64;
        for round in 0..40 {
            for (i, counter) in counters.iter_mut().enumerate() {
                for _ in 0..4 {
                    c.submit(i, Bytes::from(format!("s{i}-{counter}")));
                    *counter += 1;
                }
            }
            now += 200_000_000;
            c.run_until(SimTime::from_nanos(now));
            let violations = oracle.scan(&mut c);
            assert!(violations.is_empty(), "round {round}: {violations:?}");
            peak = peak.max(oracle.retained(&c));
        }
        // Every node delivered all 480 messages, but the oracle only
        // ever held its tails plus the freshly-pruned cluster logs:
        // O(nodes × window), independent of the run length.
        assert_eq!(oracle.total_consumed(), 3 * 480);
        assert!(peak <= 3 * 2 * window, "peak retained {peak} is not O(window)");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::FifoOrder { node: 1, sender: NodeId::new(2), prev: 5, next: 3 };
        let s = v.to_string();
        assert!(s.contains("fifo-order") && s.contains("counter 3 after 5"), "got {s}");
        assert_eq!(v.kind(), "fifo-order");
    }
}
