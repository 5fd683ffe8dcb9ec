//! The `wire` layer, measured by replay.
//!
//! The codec is not called through a boundary the benchmark can wrap:
//! the runtime's driver loop decodes and encodes inline, and the
//! simulator passes decoded packets and never runs the codec at all.
//! So a traced run captures up to 4096 frames of the workload's own
//! traffic and replays them through the same public functions the
//! runtime uses — `SharedPacket::from_datagram` to decode,
//! `Packet::encode_shared` (what `SharedPacket::encoded` caches) to
//! encode — and reports the cost per frame *of this workload's frame
//! mix*. On UDP that cost is part of `cluster.runtime`'s self time.

use std::time::Instant;

use bytes::Bytes;

use totem_wire::SharedPacket;

use crate::alloc;
use crate::stats::median;

/// Per-frame codec cost on a workload's own frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireReplay {
    /// Frames replayed.
    pub frames: usize,
    /// Mean encoded size.
    pub bytes_per_frame: f64,
    /// Median over rounds of decode time per frame.
    pub decode_ns_per_frame: f64,
    /// Median over rounds of encode time per frame.
    pub encode_ns_per_frame: f64,
    /// Allocations per decoded frame (exact).
    pub allocs_per_decode: f64,
}

const ROUNDS: usize = 15;

/// Replays raw datagrams (what the UDP transport handed the driver).
/// `None` when nothing was captured.
pub fn replay_datagrams(frames: &[Bytes]) -> Option<WireReplay> {
    if frames.is_empty() {
        return None;
    }
    let n = frames.len() as f64;
    let mut decode_ns = Vec::with_capacity(ROUNDS);
    let mut encode_ns = Vec::with_capacity(ROUNDS);
    let mut allocs_per_decode = 0.0;
    let mut decoded: Vec<SharedPacket> = Vec::with_capacity(frames.len());
    for _ in 0..ROUNDS {
        decoded.clear();
        let allocs0 = alloc::current_thread().allocs;
        let t = Instant::now();
        for f in frames {
            if let Ok(p) = SharedPacket::from_datagram(f.clone()) {
                decoded.push(p);
            }
        }
        decode_ns.push(t.elapsed().as_nanos() as f64 / n);
        allocs_per_decode = (alloc::current_thread().allocs - allocs0) as f64 / n;

        let t = Instant::now();
        for p in &decoded {
            std::hint::black_box(p.packet().encode_shared());
        }
        encode_ns.push(t.elapsed().as_nanos() as f64 / n);
    }
    if decoded.len() != frames.len() {
        return None; // a captured frame failed to decode: not the workload's traffic
    }
    Some(WireReplay {
        frames: frames.len(),
        bytes_per_frame: frames.iter().map(|f| f.len() as f64).sum::<f64>() / n,
        decode_ns_per_frame: median(&decode_ns),
        encode_ns_per_frame: median(&encode_ns),
        allocs_per_decode,
    })
}

/// Replays packets captured inside the simulator, which carries them
/// decoded: each is encoded once first, to get the datagram a socket
/// would have carried.
pub fn replay_packets(frames: &[SharedPacket]) -> Option<WireReplay> {
    let datagrams: Vec<Bytes> = frames.iter().map(|p| p.packet().encode_shared()).collect();
    replay_datagrams(&datagrams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use totem_wire::{NodeId, Packet, RingId, Token};

    #[test]
    fn replay_reports_the_mix_it_was_given() {
        let token =
            SharedPacket::new(Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))));
        let frames = vec![token; 100];
        let r = replay_packets(&frames).expect("replayable");
        assert_eq!(r.frames, 100);
        assert_eq!(r.bytes_per_frame, frames[0].encoded().len() as f64);
        assert!(r.decode_ns_per_frame > 0.0 && r.encode_ns_per_frame > 0.0);
        assert!(replay_datagrams(&[]).is_none());
        assert!(replay_datagrams(&[Bytes::from_static(b"\xffgarbage")]).is_none());
    }
}
