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
//! the transport owns copies no payload bytes.

mod common;

use common::snapshot;
use totem_cluster::{ClusterConfig, SimCluster};
use totem_rrp::ReplicationStyle;
use totem_sim::{SimDuration, SimTime};
use totem_wire::{Chunk, DataPacket, NodeId, Packet, RingId, Seq, SharedPacket};

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
        chunks: vec![Chunk::complete(1, bytes::Bytes::from(vec![0xAB; 700]))],
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

/// Decoding a data frame out of an owning buffer allocates the chunk
/// vector and the shared handle — never a buffer per chunk: payloads
/// are slices of the datagram, whatever the chunk count.
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
        assert!(a1 - a0 <= 2, "{chunks} chunks: decode allocated {} times", a1 - a0);
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

/// Per-frame allocation cost must not scale with the receiver count:
/// doubling the cluster may grow bookkeeping slightly (more per-node
/// timers and window entries in flight) but payload buffers are
/// shared, so the per-frame cost stays in the same band instead of
/// doubling with a per-receiver copy.
#[test]
fn broadcast_cost_is_independent_of_cluster_size() {
    let (allocs4, bytes4) = per_frame_cost(4, 700);
    let (allocs8, bytes8) = per_frame_cost(8, 700);

    // Regression budget for the absolute cost: the zero-copy data
    // plane runs well under 8 allocations per frame (the pre-change
    // hot path was ~18); a deep-clone regression lands far above.
    assert!(allocs4 < 10.0, "allocs/frame at 4 nodes regressed: {allocs4:.1}");
    assert!(allocs8 < 12.0, "allocs/frame at 8 nodes regressed: {allocs8:.1}");

    // Scaling: with per-receiver deep clones a 4→8 node doubling
    // costs ≥2× the buffer bytes per frame. Shared frames keep both
    // counts in the same band; 1.6 leaves room for bookkeeping noise.
    assert!(
        allocs8 < allocs4 * 1.6,
        "allocs/frame scaled with cluster size: {allocs4:.1} -> {allocs8:.1}"
    );
    assert!(
        bytes8 < bytes4 * 1.6,
        "alloc bytes/frame scaled with cluster size: {bytes4:.0} -> {bytes8:.0}"
    );
}
