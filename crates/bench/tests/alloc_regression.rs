//! Allocation-regression gate for the zero-copy data plane.
//!
//! The hot-path contract is: a broadcast performs **one encode** of
//! the frame (cached in its [`totem_wire::SharedPacket`]) plus O(1)
//! buffer allocations, *independent of cluster size* — fanning a
//! frame out to more receivers is refcount bumps, never payload
//! copies. These tests pin that with a counting global allocator
//! (scoped to the test's own thread, see `common`): if a per-receiver
//! deep clone or a per-send re-encode sneaks back in, the per-frame
//! numbers scale with the node count and the assertions below fail.
//! The receive side has the matching contract: decoding a datagram
//! the transport owns copies no payload bytes, and the SRP allocates
//! nothing for a frame it receives — only for what it originates (a
//! shared handle per packet, plus a chunk list for a packet of several
//! chunks; a lone chunk is held inline). And replication costs
//! what it carries: a redundant copy is dropped before it is decoded,
//! and a token crosses a node in the one handle it was decoded into.

mod common;

use std::collections::VecDeque;

use common::snapshot;
use totem_cluster::{ClusterConfig, NodeOutput, SimCluster, TotemNode};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_sim::{SimDuration, SimTime};
use totem_srp::packing::{Packer, Reassembler};
use totem_srp::{SrpConfig, SrpEvent, SrpNode};
use totem_wire::{
    Chunk, ChunkKind, DataPacket, NetworkId, NodeId, Packet, RingId, Seq, SharedPacket, WireHeader,
    MAX_DECODE_LEN,
};

/// Steady-state allocation cost of a saturated cluster: (allocations
/// per wire frame, allocated bytes per wire frame).
fn per_frame_cost(nodes: usize, msg_size: usize) -> (f64, f64) {
    let mut cfg = ClusterConfig::new(nodes, ReplicationStyle::Active).counters_only().with_seed(7);
    cfg.sim = cfg.sim.with_cpu(totem_sim::CpuConfig::pentium_ii_450());
    let mut cluster = SimCluster::new(cfg);
    cluster.enable_saturation(msg_size);

    // Warm up: ring formation, first-touch growth of windows, pools
    // and queues all happen here, outside the counted window.
    cluster.run_until(SimTime::ZERO + SimDuration::from_millis(80));
    let frames_before = cluster.net_stats().total_frames();
    let (a0, b0) = snapshot();

    cluster.run_until(SimTime::ZERO + SimDuration::from_millis(80 + 120));

    let (a1, b1) = snapshot();
    let frames = cluster.net_stats().total_frames() - frames_before;
    assert!(frames > 100, "expected a saturated run, got only {frames} frames");
    ((a1 - a0) as f64 / frames as f64, (b1 - b0) as f64 / frames as f64)
}

/// Encoding a shared frame allocates once; every further access to
/// the wire form is free.
#[test]
fn second_encode_of_a_shared_frame_allocates_nothing() {
    let pkt: SharedPacket = DataPacket {
        ring: RingId::new(NodeId::new(0), 1),
        seq: Seq::new(1),
        sender: NodeId::new(0),
        chunks: Chunk::complete(1, bytes::Bytes::from(vec![0xAB; 700])).into(),
    }
    .into();

    let first = pkt.encoded().clone();
    let (a0, _) = snapshot();
    for _ in 0..16 {
        // Clones of the handle share the cache: no encode, no alloc.
        let copy = pkt.clone();
        assert_eq!(copy.encoded().as_ref(), first.as_ref());
    }
    let (a1, _) = snapshot();
    assert_eq!(a1 - a0, 0, "re-reading the cached encoding must not allocate");
}

/// Decoding a data frame out of an owning buffer allocates the shared
/// handle, plus the chunk vector when there are several chunks — never
/// a buffer per chunk: payloads are slices of the datagram, whatever
/// the chunk count. A lone chunk is held inline: one allocation.
#[test]
fn decoding_an_owned_data_frame_allocates_at_most_twice() {
    for chunks in [1usize, 12, 60] {
        let wire = Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(9),
            sender: NodeId::new(1),
            chunks: (0..chunks)
                .map(|i| {
                    Chunk::complete(i as u32, bytes::Bytes::from(vec![i as u8; 1200 / chunks]))
                })
                .collect(),
        })
        .encode_shared();

        let (a0, b0) = snapshot();
        let decoded = SharedPacket::from_datagram(wire.clone()).expect("valid frame");
        let (a1, b1) = snapshot();
        let bound = if chunks == 1 { 1 } else { 2 };
        assert!(a1 - a0 <= bound, "{chunks} chunks: decode allocated {} times", a1 - a0);
        // The chunk vector and the handle, but none of the 1200
        // payload bytes.
        let bookkeeping = (chunks * size_of::<Chunk>() + 256) as u64;
        assert!(
            b1 - b0 <= bookkeeping,
            "{chunks} chunks: decode allocated {} bytes, bookkeeping is {bookkeeping}",
            b1 - b0
        );
        assert_eq!(decoded.data().map(|d| d.chunks.len()), Some(chunks));
    }
}

/// A data packet is a handful of words plus its chunk list; a lone
/// chunk held inline must not make every packet much larger.
#[test]
fn a_packet_stays_within_96_bytes() {
    assert!(size_of::<Packet>() <= 96, "Packet is {} bytes", size_of::<Packet>());
}

/// `orig_len` comes off the wire: a forged `FragStart` claiming a 4 GiB
/// message must not make the reassembler reserve 4 GiB. Up front it
/// reserves at most the codec's decode bound.
#[test]
fn a_forged_fragment_length_reserves_at_most_the_decode_bound() {
    let mut r = Reassembler::new();
    let forged = Chunk {
        kind: ChunkKind::FragStart,
        msg_id: 1,
        orig_len: u32::MAX,
        data: bytes::Bytes::from_static(b"x"),
    };
    let (_, b0) = snapshot();
    assert_eq!(r.push(NodeId::new(3), &forged), None);
    let (_, b1) = snapshot();
    // The reservation, plus the partial-message map's first table.
    let bound = (MAX_DECODE_LEN + 4096) as u64;
    assert!(b1 - b0 <= bound, "a forged FragStart requested {} bytes", b1 - b0);
    assert_eq!(r.pending(), 1);
}

/// The packer cuts a fragmented message's chunks as adjacent views of
/// the buffer it was submitted in; reassembling them hands that buffer
/// back — the same address — and allocates nothing.
#[test]
fn a_message_cut_from_one_buffer_reassembles_without_allocating() {
    let payload: bytes::Bytes = (0..10_000u32).map(|i| i as u8).collect();
    let mut queue = VecDeque::from([payload.clone(), payload.clone()]);
    let mut packer = Packer::new();
    let chunks: Vec<Chunk> =
        std::iter::from_fn(|| packer.pack_next(&mut queue)).flat_map(|c| c.to_vec()).collect();
    let (first, second) = chunks.split_at(chunks.len() / 2);
    assert_eq!(first.len(), 8, "a 10 kB message fragments 8 ways");

    let mut r = Reassembler::new();
    let sender = NodeId::new(1);
    // The first message sizes the partial-message map.
    assert!(first.iter().filter_map(|c| r.push(sender, c)).eq([payload.clone()]));
    let (a0, _) = snapshot();
    let mut delivered = None;
    for c in second {
        if let Some(msg) = r.push(sender, c) {
            delivered = Some(msg);
        }
    }
    let (a1, _) = snapshot();
    assert_eq!(a1 - a0, 0, "reassembling a message of views allocated");
    let delivered = delivered.expect("the last fragment completes the message");
    assert_eq!(delivered, payload);
    assert_eq!(delivered.as_ptr(), payload.as_ptr(), "delivered as the submitted buffer");
}

/// Per-frame allocation cost must not scale with the receiver count:
/// doubling the cluster may grow bookkeeping slightly (more per-node
/// timers and window entries in flight) but payload buffers are
/// shared, so the per-frame cost stays in the same band instead of
/// doubling with a per-receiver copy.
#[test]
fn broadcast_cost_is_independent_of_cluster_size() {
    let (allocs4, bytes4) = per_frame_cost(4, 700);
    let (allocs8, bytes8) = per_frame_cost(8, 700);

    // Regression budget for the absolute cost: with the SRP
    // allocating only for what it originates, a frame costs just
    // under 3 allocations at either size (4.8 and 6.8 before the
    // ring-buffer window, ~18 before the zero-copy data plane); a
    // per-received-frame allocation or a deep clone lands above 4.
    assert!(allocs4 < 4.0, "allocs/frame at 4 nodes regressed: {allocs4:.1}");
    assert!(allocs8 < 4.0, "allocs/frame at 8 nodes regressed: {allocs8:.1}");

    // Scaling: with per-receiver deep clones a 4→8 node doubling
    // costs ≥2× the buffer bytes per frame. Shared frames keep both
    // counts in the same band; 1.3 leaves room for bookkeeping noise.
    assert!(
        allocs8 < allocs4 * 1.3,
        "allocs/frame scaled with cluster size: {allocs4:.1} -> {allocs8:.1}"
    );
    assert!(
        bytes8 < bytes4 * 1.3,
        "alloc bytes/frame scaled with cluster size: {bytes4:.0} -> {bytes8:.0}"
    );
}

/// What one call into an [`SrpNode`] cost.
#[derive(Debug, Clone, Copy)]
struct Cost {
    node: usize,
    /// Allocations made inside the call.
    allocs: u64,
    /// Bytes those allocations requested.
    bytes: u64,
    /// Data packets the call originated.
    packed: u64,
    kind: Call,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    /// `handle_packet` with a data frame the node had not seen.
    NewFrame,
    /// `handle_packet` with a second copy of the frame just handled —
    /// what every redundant network delivers (Requirement A1).
    DuplicateFrame,
    /// `handle_packet` with a token, or a `submit` that found the node
    /// holding an idle one: the calls that run the send phase.
    TokenVisit,
    /// `on_timer`: on a quiet wire, the idle-token hold ending.
    Timer,
}

/// Two SRP nodes wired back to back with a hand-cranked clock: node 0
/// sends packets of `msg_size`-byte messages, node 1 only receives, and
/// every call into either is metered on its own.
struct MeteredRing {
    msg_size: usize,
    nodes: Vec<SrpNode>,
    now: u64,
    wire: VecDeque<(usize, SharedPacket)>,
    costs: Vec<Cost>,
}

impl MeteredRing {
    fn new(msg_size: usize) -> Self {
        let members = [NodeId::new(0), NodeId::new(1)];
        let nodes = members
            .iter()
            .map(|&me| SrpNode::new_operational(me, SrpConfig::default(), &members, 0).unwrap())
            .collect();
        let mut ring = MeteredRing {
            msg_size,
            nodes,
            now: 0,
            wire: VecDeque::with_capacity(256),
            costs: Vec::with_capacity(1 << 16),
        };
        let events = ring.nodes[0].bootstrap_token(0);
        ring.route(0, events);
        ring
    }

    /// Puts a node's sends on the wire and hands its event buffer back.
    fn route(&mut self, from: usize, mut events: Vec<SrpEvent>) {
        for ev in events.drain(..) {
            match ev {
                SrpEvent::Broadcast(p) | SrpEvent::Rebroadcast(p) => {
                    self.wire.push_back((1 - from, p));
                }
                SrpEvent::ToSuccessor(to, p) => self.wire.push_back((to.index(), p)),
                SrpEvent::Deliver(_) | SrpEvent::Config(_) => {}
            }
        }
        self.nodes[from].recycle_events(events);
    }

    fn metered(
        &mut self,
        node: usize,
        kind: Call,
        call: impl FnOnce(&mut SrpNode) -> Vec<SrpEvent>,
    ) {
        let sent_before = self.nodes[node].stats().packets_sent;
        let (a0, b0) = snapshot();
        let events = call(&mut self.nodes[node]);
        let (a1, b1) = snapshot();
        let packed = self.nodes[node].stats().packets_sent - sent_before;
        self.costs.push(Cost { node, allocs: a1 - a0, bytes: b1 - b0, packed, kind });
        self.route(node, events);
    }

    /// One round: node 0 queues `packets` packets' worth of messages,
    /// then the ring runs until the wire is quiet and the token is
    /// parked again.
    fn round(&mut self, packets: usize) {
        let per_packet = totem_wire::MAX_PAYLOAD / (self.msg_size + totem_wire::CHUNK_HEADER_LEN);
        self.submit(packets * per_packet);
        self.settle();
    }

    /// Node 0 queues `msgs` messages.
    fn submit(&mut self, msgs: usize) {
        for _ in 0..msgs {
            let data = bytes::Bytes::from(vec![0x5A; self.msg_size]);
            let now = self.now;
            self.metered(0, Call::TokenVisit, |n| n.submit(now, data).unwrap());
        }
    }

    /// Runs the ring until the wire is quiet and the token is parked
    /// again.
    fn settle(&mut self) {
        for _ in 0..64 {
            while let Some((to, pkt)) = self.wire.pop_front() {
                self.now += 1_000;
                let now = self.now;
                if pkt.data().is_some() {
                    let copy = pkt.clone();
                    self.metered(to, Call::NewFrame, |n| n.handle_packet(now, pkt));
                    self.metered(to, Call::DuplicateFrame, |n| n.handle_packet(now, copy));
                } else {
                    self.metered(to, Call::TokenVisit, |n| n.handle_packet(now, pkt));
                }
            }
            // Quiet wire: fire the earliest timer (the idle-token hold).
            let Some((node, at)) = (0..2)
                .filter_map(|i| self.nodes[i].next_deadline().map(|d| (i, d)))
                .min_by_key(|&(_, d)| d)
            else {
                return;
            };
            self.now = self.now.max(at);
            let now = self.now;
            self.metered(node, Call::Timer, |n| n.on_timer(now));
        }
    }
}

/// Runs a warmed-up [`MeteredRing`] of `msg_size`-byte messages through
/// bursts of 1, 3, 5 and 3 packets and checks what every call cost:
///
/// * a data frame received in order — inserted, and its messages
///   delivered — allocates nothing;
/// * the redundant copy of it allocates nothing;
/// * a token visit that packs P packets allocates at most
///   `per_packet`·P + 1: what each packet costs, and the forwarded
///   token's handle.
fn check_steady_state(msg_size: usize, per_packet: u64) {
    let mut ring = MeteredRing::new(msg_size);
    // Warm up at the deepest burst measured below, so no window, queue
    // or event buffer has growing left to do.
    for _ in 0..8 {
        ring.round(5);
    }
    ring.costs.clear();
    for packets in [1, 3, 5, 3] {
        ring.round(packets);
    }

    let received: Vec<&Cost> = ring.costs.iter().filter(|c| c.node == 1).collect();
    let count = |kind| received.iter().filter(|c| c.kind == kind).count();
    assert!(count(Call::NewFrame) >= 12, "node 1 saw {} frames", count(Call::NewFrame));
    assert_eq!(count(Call::NewFrame), count(Call::DuplicateFrame));
    for c in received.iter().filter(|c| matches!(c.kind, Call::NewFrame | Call::DuplicateFrame)) {
        assert_eq!(c.allocs, 0, "receiving a frame allocated: {c:?}");
    }
    assert_eq!(ring.nodes[1].stats().delivered_msgs, ring.nodes[0].stats().delivered_msgs);

    let visits: Vec<&Cost> = ring.costs.iter().filter(|c| c.kind == Call::TokenVisit).collect();
    assert!(visits.iter().any(|c| c.packed >= 3), "no visit packed a burst");
    for c in visits {
        assert!(
            c.allocs <= per_packet * c.packed + 1,
            "{msg_size}-byte messages: a token visit over-allocated: {c:?}"
        );
    }
}

/// The SRP's steady state allocates only what it originates. On a
/// ring that packs twelve 100-byte messages per frame, a packet costs
/// two allocations: its chunk list and its shared handle.
#[test]
fn srp_steady_state_allocates_only_what_it_originates() {
    check_steady_state(100, 2);
}

/// A packet of one chunk — here one 1,000-byte message, as for every
/// message over half a frame and every fragment — holds it inline and
/// costs only its shared handle.
#[test]
fn a_one_chunk_packet_costs_one_allocation() {
    check_steady_state(1000, 1);
}

/// On a ring whose nodes share frame handles — the simulator's way —
/// a 10 kB message's eight fragments are adjacent views of the buffer
/// it was submitted in, at the sender and the receiver alike. Both
/// reassemble it without copying: no call into either node allocates
/// anything the size of the message.
#[test]
fn a_fragmented_message_costs_no_payload_sized_allocation_at_any_node() {
    let msg_size = 10_000;
    let mut ring = MeteredRing::new(msg_size);
    for _ in 0..4 {
        ring.submit(2);
        ring.settle();
    }
    ring.costs.clear();
    let delivered: Vec<u64> = ring.nodes.iter().map(|n| n.stats().delivered_msgs).collect();
    ring.submit(3);
    ring.settle();

    for (node, before) in delivered.into_iter().enumerate() {
        assert_eq!(ring.nodes[node].stats().delivered_msgs, before + 3, "node {node}");
    }
    assert!(ring.costs.iter().filter(|c| c.kind == Call::NewFrame).count() >= 24);
    for c in &ring.costs {
        assert!(c.bytes < msg_size as u64, "a call allocated {} bytes: {c:?}", c.bytes);
    }
}

/// A token that arrives in a handle its sender still holds (the
/// simulator's way: the sender keeps it for retransmission) is not
/// cloned: the visit rewrites the token cell the node retired, which it
/// recycled. On an idle
/// ring, every visit and every hold release then allocates nothing —
/// the shared-handle companion of `idle_token_visit_allocates_nothing`.
#[test]
fn idle_token_visit_through_a_shared_handle_allocates_nothing() {
    let mut ring = MeteredRing::new(100);
    for _ in 0..4 {
        ring.round(1);
        ring.round(0);
    }
    ring.costs.clear();
    ring.round(0);

    let visits = ring.costs.iter().filter(|c| c.kind == Call::TokenVisit).count();
    assert!(visits >= 16, "only {visits} token visits");
    assert!(ring.costs.iter().any(|c| c.kind == Call::Timer), "no hold was released");
    for c in &ring.costs {
        assert_eq!(c.allocs, 0, "an idle visit allocated: {c:?}");
    }
    assert_eq!(ring.nodes.iter().map(|n| n.stats().gathers).sum::<u64>(), 0);
}

/// Whole [`TotemNode`]s on one ring, fed the way the threaded driver
/// feeds them — raw datagrams in, encoded frames out — with every call
/// into a node, and the encoding of what it sends, metered.
struct MeteredNodes {
    nodes: Vec<TotemNode>,
    now: u64,
    /// Datagrams in flight: (destination, network, bytes).
    wire: VecDeque<(usize, NetworkId, bytes::Bytes)>,
    out: Vec<NodeOutput>,
}

impl MeteredNodes {
    fn new(members: u16, style: ReplicationStyle, networks: usize) -> Self {
        let members: Vec<NodeId> = (0..members).map(NodeId::new).collect();
        let nodes = members
            .iter()
            .map(|&me| {
                TotemNode::new_operational(
                    me,
                    &members,
                    SrpConfig::default(),
                    RrpConfig::new(style, networks),
                    0,
                )
            })
            .collect();
        let mut pair = MeteredNodes {
            nodes,
            now: 0,
            wire: VecDeque::with_capacity(64),
            out: Vec::with_capacity(64),
        };
        pair.metered(0, |n, now, out| out.extend(n.bootstrap_token(now)));
        pair
    }

    /// One call into node `at`, plus the encoding of every frame it
    /// sends (what the driver's `stage` does): the allocations of both.
    /// The sends land on the wire as datagrams of their own, as a
    /// socket would hand them over (copied outside the metered window).
    fn metered(
        &mut self,
        at: usize,
        call: impl FnOnce(&mut TotemNode, u64, &mut Vec<NodeOutput>),
    ) -> u64 {
        let (call, encoding) = self.metered_apart(at, call);
        call + encoding
    }

    /// [`MeteredNodes::metered`], with the call's allocations and the
    /// encoding's apart: (call, encoding).
    fn metered_apart(
        &mut self,
        at: usize,
        call: impl FnOnce(&mut TotemNode, u64, &mut Vec<NodeOutput>),
    ) -> (u64, u64) {
        let (a0, _) = snapshot();
        call(&mut self.nodes[at], self.now, &mut self.out);
        let (a1, _) = snapshot();
        for o in &self.out {
            if let NodeOutput::Send { pkt, .. } = o {
                pkt.encoded();
            }
        }
        let (a2, _) = snapshot();
        for o in self.out.drain(..) {
            if let NodeOutput::Send { net, dst, pkt } = o {
                let peers = 0..self.nodes.len();
                for to in peers.filter(|&to| dst.map_or(to != at, |d| d.index() == to)) {
                    self.wire.push_back((to, net, bytes::Bytes::copy_from_slice(pkt.encoded())));
                }
            }
        }
        (a1 - a0, a2 - a1)
    }

    /// One step of the world: the oldest datagram in flight into its
    /// node — through `wrap`, which may repackage it — or, only when
    /// nothing is in flight, the earliest timer. Returns the node and
    /// what the call and its encodings cost, apart.
    fn step(&mut self, wrap: impl FnOnce(bytes::Bytes) -> bytes::Bytes) -> (usize, (u64, u64)) {
        match self.wire.pop_front() {
            Some((to, net, datagram)) => {
                self.now += 1_000;
                let datagram = wrap(datagram);
                let call = |n: &mut TotemNode, now, out: &mut Vec<NodeOutput>| {
                    n.on_datagram_into(now, net, datagram, out);
                };
                (to, self.metered_apart(to, call))
            }
            None => {
                let at = (0..self.nodes.len())
                    .min_by_key(|&i| self.nodes[i].next_deadline())
                    .expect("a node");
                (at, self.fire_apart(at))
            }
        }
    }

    /// Queues `msgs` messages of `size` bytes at node `at`.
    fn submit(&mut self, at: usize, msgs: usize, size: usize) {
        for _ in 0..msgs {
            let data = bytes::Bytes::from(vec![0x5A; size]);
            self.metered(at, |n, now, out| n.submit_into(now, data, out).expect("queue has room"));
        }
    }

    /// Feeds node `at` every datagram in flight to it; returns what
    /// each cost.
    fn receive(&mut self, at: usize) -> Vec<u64> {
        let mut costs = Vec::new();
        while let Some(i) = self.wire.iter().position(|&(to, ..)| to == at) {
            let (_, net, datagram) = self.wire.remove(i).expect("position is in range");
            self.now += 1_000;
            costs.push(self.metered(at, |n, now, out| n.on_datagram_into(now, net, datagram, out)));
        }
        costs
    }

    /// Fires node `at`'s earliest timer; returns what it cost.
    fn fire(&mut self, at: usize) -> u64 {
        let (call, encoding) = self.fire_apart(at);
        call + encoding
    }

    /// [`MeteredNodes::fire`], the call's cost and the encoding's apart.
    fn fire_apart(&mut self, at: usize) -> (u64, u64) {
        let deadline = self.nodes[at].next_deadline().expect("a timer is armed");
        self.now = self.now.max(deadline);
        self.metered_apart(at, |n, now, out| n.on_timer_into(now, out))
    }

    /// One idle token visit at node `at`: every copy of the token in,
    /// the idle hold, the timer that ends it, the forwarded token
    /// encoded for the wire. Returns (cost of each copy, cost of the
    /// release).
    fn idle_visit(&mut self, at: usize) -> (Vec<u64>, u64) {
        let copies = self.receive(at);
        assert!(!copies.is_empty(), "no token reached node {at}");
        let handled = self.nodes[at].srp().stats().tokens_handled;
        let release = self.fire(at);
        assert_eq!(self.nodes[at].srp().stats().tokens_handled, handled);
        assert!(self.wire.iter().any(|&(to, ..)| to != at), "node {at} did not forward");
        (copies, release)
    }
}

/// A token that changes three integers per hop costs nothing: across a
/// whole idle visit — N datagrams in, the gate, the SRP's update, the
/// hold, the timer release, the routes, the encoding — a node
/// allocates nothing. The first copy is decoded into the token cell
/// the node retired a visit ago, whose `rtr` keeps its capacity; the
/// other copies are never decoded; the update happens in that cell;
/// and the token it forwards is encoded into the buffer that cell was
/// last sent in.
#[test]
fn idle_token_visit_allocates_nothing() {
    for (style, networks) in [
        (ReplicationStyle::Active, 2),
        (ReplicationStyle::Passive, 2),
        (ReplicationStyle::ActivePassive { copies: 2 }, 3),
    ] {
        let mut pair = MeteredNodes::new(2, style, networks);
        pair.fire(0);
        // Warm up: event buffers, route buffers, the output buffer,
        // and the token cells each node recycles.
        for _ in 0..8 {
            pair.idle_visit(1);
            pair.idle_visit(0);
        }
        for _ in 0..32 {
            for at in [1, 0] {
                let (copies, release) = pair.idle_visit(at);
                let visit = copies.iter().sum::<u64>() + release;
                assert_eq!(
                    visit, 0,
                    "{style}: an idle token visit allocated {visit} times \
                     (copies {copies:?}, release {release})"
                );
            }
        }
        assert_eq!(pair.nodes[0].srp().stats().gathers + pair.nodes[1].srp().stats().gathers, 0);
    }
}

/// Pacing is for an idle *ring*, not an idle member: while node 0 has
/// more queued than one visit sends, the two members with nothing of
/// their own to send relay the token the moment it arrives — the wire
/// never goes quiet, so no hold timer is ever needed — and once node 0
/// reports an empty queue every member holds the token again. Counts
/// and hand-cranked time only.
#[test]
fn silent_members_hold_the_token_only_when_the_ring_is_idle() {
    let mut ring = MeteredNodes::new(3, ReplicationStyle::Active, 2);
    let stat = |ring: &MeteredNodes, f: fn(&totem_srp::node::SrpStats) -> u64| -> Vec<u64> {
        ring.nodes.iter().map(|n| f(n.srp().stats())).collect()
    };
    let handled = |ring: &MeteredNodes| stat(ring, |s| s.tokens_handled);
    let held = |ring: &MeteredNodes| stat(ring, |s| s.tokens_held);
    // One step of the world: the oldest datagram in flight, or — only
    // when nothing is in flight — the earliest timer.
    let step = |ring: &mut MeteredNodes, timers_fired: &mut u64| {
        *timers_fired += u64::from(ring.wire.is_empty());
        ring.step(|d| d);
    };

    // Loaded: node 0 always has more than a visit's worth (20 packets
    // of one 1,000-byte message each) queued.
    let top_up = |ring: &mut MeteredNodes| {
        while ring.nodes[0].srp().send_queue_len() < 64 {
            ring.submit(0, 1, 1000);
        }
    };
    // The first submission releases the bootstrap token parked at node
    // 0 with one message aboard and an empty queue reported; node 0's
    // next visit is the first to report a backlog.
    let mut timers_fired = 0;
    top_up(&mut ring);
    while handled(&ring)[0] < 2 {
        step(&mut ring, &mut timers_fired);
    }
    let (start, held_at_start) = (handled(&ring)[0], held(&ring));
    timers_fired = 0;
    while handled(&ring)[0] < start + 100 {
        top_up(&mut ring);
        step(&mut ring, &mut timers_fired);
    }
    assert_eq!(timers_fired, 0, "a loaded ring went quiet: some member sat on the token");
    for silent in [1, 2] {
        assert_eq!(held(&ring)[silent], held_at_start[silent], "node {silent} held a loaded token");
        assert!(ring.nodes[silent].srp().stats().delivered_msgs >= 99 * 20);
    }

    // Node 0 stops submitting and drains; from the visit that reports
    // its queue empty, every visit of every member is a hold.
    while ring.nodes[0].srp().send_queue_len() > 0 {
        step(&mut ring, &mut timers_fired);
    }
    assert_eq!(timers_fired, 0, "the ring was paced while node 0 still had messages queued");
    let (handled_idle, held_idle) = (handled(&ring), held(&ring));
    while handled(&ring).iter().zip(&handled_idle).any(|(now, then)| *now < then + 2) {
        step(&mut ring, &mut timers_fired);
    }
    for node in 0..3 {
        assert_eq!(
            held(&ring)[node] - held_idle[node],
            handled(&ring)[node] - handled_idle[node],
            "node {node} did not hold on every visit of the idle ring"
        );
    }
    assert!(timers_fired >= 3, "an idle ring moves on its hold timers");
    assert_eq!(ring.nodes.iter().map(|n| n.srp().stats().gathers).sum::<u64>(), 0);
}

/// The copies replication delivers by design are dropped before they
/// are decoded: the second copy of a token (it completes the gate with
/// the handle already there), a data frame the window already holds,
/// and one at or below the contiguity watermark. Each still moves the
/// reception counters like any other copy.
#[test]
fn redundant_copy_allocates_nothing() {
    let mut pair = MeteredNodes::new(2, ReplicationStyle::Active, 2);
    pair.fire(0);
    for _ in 0..8 {
        pair.idle_visit(1);
        pair.idle_visit(0);
    }
    for _ in 0..8 {
        for at in [1, 0] {
            let (copies, _) = pair.idle_visit(at);
            assert_eq!(copies.len(), 2, "active replication delivers one copy per network");
            assert_eq!(copies[1], 0, "the second token copy allocated");
        }
    }

    // Data frames for node 1, crafted so arrival order is ours: 2
    // before 1, each on both networks.
    let frame = |seq: u64| {
        Packet::Data(DataPacket {
            ring: pair.nodes[1].srp().ring_id().expect("operational"),
            seq: Seq::new(seq),
            sender: NodeId::new(0),
            chunks: Chunk::complete(seq as u32, bytes::Bytes::from(vec![0x5A; 100])).into(),
        })
        .encode_shared()
    };
    let (two, one) = (frame(2), frame(1));
    let received = |pair: &MeteredNodes| pair.nodes[1].rrp().stats().received.clone();
    let feed = |pair: &mut MeteredNodes, net: u8, datagram: &bytes::Bytes| {
        let datagram = bytes::Bytes::copy_from_slice(datagram);
        pair.metered(1, |n, now, out| n.on_datagram_into(now, NetworkId::new(net), datagram, out))
    };
    let before = received(&pair);
    assert!(feed(&mut pair, 0, &two) > 0, "a new frame is decoded");
    assert_eq!(feed(&mut pair, 1, &two), 0, "a copy of a frame held above the watermark");
    assert!(feed(&mut pair, 0, &one) > 0);
    assert_eq!(feed(&mut pair, 1, &one), 0, "a copy of a frame at the watermark");
    assert_eq!(feed(&mut pair, 0, &one), 0, "a copy of a frame below the watermark");
    assert_eq!(received(&pair), vec![before[0] + 3, before[1] + 2]);
    assert_eq!(pair.nodes[1].srp().stats().delivered_msgs, 2);
}

/// A loaded ring of 400-byte messages, three to a frame: every call
/// into a node — a frame decoded, its redundant copy dropped, a token
/// visit that delivers, discards and packs frames of its own — and the
/// encoding of every frame it sends allocates nothing. Received frames
/// are decoded into, and new ones packed into, the cells the node's
/// window discarded, whose chunk lists already hold three; a frame the
/// node originates is encoded into the buffer its cell was last sent
/// in.
#[test]
fn a_loaded_visit_allocates_nothing() {
    let mut ring = MeteredNodes::new(2, ReplicationStyle::Active, 2);
    let handled = |ring: &MeteredNodes| -> u64 {
        ring.nodes.iter().map(|n| n.srp().stats().tokens_handled).sum()
    };
    let run = |ring: &mut MeteredNodes, visits: u64, check: bool| {
        let until = handled(ring) + visits;
        let mut frames = 0;
        while handled(ring) < until {
            for at in 0..2 {
                let queued = ring.nodes[at].srp().send_queue_len();
                ring.submit(at, 12usize.saturating_sub(queued), 400);
            }
            let sent: Vec<u64> = ring.nodes.iter().map(|n| n.srp().stats().packets_sent).collect();
            let delivered: u64 = ring.nodes.iter().map(|n| n.srp().stats().delivered_msgs).sum();
            let (at, (call, encoding)) = ring.step(|d| d);
            let originated = ring.nodes[at].srp().stats().packets_sent - sent[at];
            frames += originated;
            if check {
                assert_eq!(call, 0, "node {at}: a call allocated (it packed {originated} frames)");
                assert_eq!(encoding, 0, "node {at}: encoding its {originated} frames allocated");
                let now: u64 = ring.nodes.iter().map(|n| n.srp().stats().delivered_msgs).sum();
                assert_eq!((now - delivered) % 3, 0, "frames carry three messages each");
            }
        }
        frames
    };
    // Warm up: windows, queues, event buffers, and the cells each
    // window discards.
    run(&mut ring, 40, false);
    let frames = run(&mut ring, 40, true);
    assert!(frames >= 40, "only {frames} frames were originated");
    assert!(ring.nodes.iter().all(|n| n.srp().cells().reused() > 0));
    assert_eq!(ring.nodes.iter().map(|n| n.srp().stats().gathers).sum::<u64>(), 0);
}

/// A frame that arrived as a view of a batch of datagrams — the way the
/// transport hands them over — pins nothing once the node is done
/// with it: delivered and discarded, its cell recycled, the batch is
/// unique again.
#[test]
fn a_recycled_cell_pins_no_datagram() {
    let mut ring = MeteredNodes::new(2, ReplicationStyle::Active, 2);
    ring.fire(0);
    ring.submit(0, 3, 400);
    let mut batches = Vec::new();
    for _ in 0..400 {
        ring.step(|datagram| {
            if WireHeader::parse(&datagram).is_ok_and(|h| matches!(h, WireHeader::Data { .. })) {
                // The frame behind another datagram in one buffer.
                let batch = bytes::Bytes::from([&b"lead"[..], &datagram].concat());
                batches.push(batch.clone());
                return batch.slice(4..);
            }
            datagram
        });
    }
    assert!(batches.len() >= 2, "the frame reached node 1 on both networks");
    assert_eq!(ring.nodes[1].srp().stats().delivered_msgs, 3);
    let recycled = ring.nodes[1].srp().cells();
    assert!(!recycled.is_empty(), "node 1 recycled the frame's cell");
    for batch in &batches {
        assert!(batch.is_unique(), "a recycled cell still views its datagram");
    }
}

/// The same, with nothing but the node holding the batches: once its
/// cells are recycled the batches are unique, and still no cell keeps
/// one as the buffer its next frame is encoded into — a received buffer
/// is the transport's to reuse. So the first frame node 1 originates,
/// in a cell that last held a received frame, is encoded afresh.
#[test]
fn a_recycled_cell_keeps_no_received_buffer_as_its_spare() {
    let mut ring = MeteredNodes::new(2, ReplicationStyle::Active, 2);
    ring.fire(0);
    ring.submit(0, 3, 400);
    for _ in 0..400 {
        ring.step(|datagram| {
            if WireHeader::parse(&datagram).is_ok_and(|h| matches!(h, WireHeader::Data { .. })) {
                return bytes::Bytes::from([&b"lead"[..], &datagram].concat()).slice(4..);
            }
            datagram
        });
    }
    assert_eq!(ring.nodes[1].srp().stats().delivered_msgs, 3);
    assert!(!ring.nodes[1].srp().cells().is_empty(), "node 1 recycled the frame's cell");

    // A message far smaller than the frame node 1 received, so its
    // frame would fit that frame's buffer.
    ring.submit(1, 1, 100);
    let mut visit = None;
    for _ in 0..400 {
        let sent = ring.nodes[1].srp().stats().packets_sent;
        let (at, cost) = ring.step(|d| d);
        if at == 1 && ring.nodes[1].srp().stats().packets_sent > sent {
            visit = Some(cost);
            break;
        }
    }
    // Packed into a recycled cell, the visit allocates nothing; the
    // frame's encoding is a buffer of its own.
    assert_eq!(visit, Some((0, 1)), "(visit, encoding) allocations of node 1's first frame");
}

/// However many frames a visit discards, the recycled cells a node
/// keeps never outnumber its bound — a flow-control window of frames
/// and one token — and the bound is what stops them: three members
/// with a window's worth of frames each queued fill every rotation
/// with a window of frames.
#[test]
fn the_free_list_stays_within_its_bound_after_a_window_burst() {
    let mut ring = MeteredNodes::new(3, ReplicationStyle::Active, 2);
    let window = SrpConfig::default().window_size as usize;
    ring.fire(0);
    for at in 0..3 {
        ring.submit(at, window * 3, 400);
    }
    let mut most = 0;
    for _ in 0..5_000 {
        ring.step(|d| d);
        for n in &ring.nodes {
            assert_eq!(n.srp().cells().bound(), window + 1);
            assert!(n.srp().cells().len() <= n.srp().cells().bound());
            most = most.max(n.srp().cells().len());
        }
    }
    for n in &ring.nodes {
        assert_eq!(n.srp().stats().delivered_msgs, window as u64 * 9);
    }
    assert_eq!(most, window + 1, "the burst filled a free list to its bound");
}
