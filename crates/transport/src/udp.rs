//! Real UDP transport: one socket per redundant network, batched.
//!
//! The paper's testbed gave every workstation one NIC per network; the
//! analogue here is one bound UDP socket per network per node. A
//! [`UdpTopology`] maps `(node, network) → SocketAddr`. Broadcast is
//! emulated by unicast fan-out to all peers on that network, so
//! everything runs on 127.0.0.1 without multicast setup; on a real
//! segmented LAN the same topology works with per-subnet addresses.
//!
//! **Receive path.** One reader thread per socket drains datagrams
//! into a single-writer [`InboxArena`] —
//! a compact linear buffer, one per (reader → driver) pair — and
//! hands the driver whole [`SealedBatch`]es
//! through one channel send per batch. Frames are carved off as
//! zero-copy `Bytes` slices of the batch's exact-size allocation: no
//! per-datagram allocation, no per-datagram queue operation. With the
//! `mmsg` feature on Linux the drain itself is one `recvmmsg(2)` per
//! batch; portably it is one blocking `recv_from` followed by a
//! non-blocking drain of whatever else is queued.
//!
//! **Send path.** [`Transport::send_batch`] groups a batch's frames
//! into contiguous same-network runs. With `mmsg` each run (with
//! broadcast fan-out expanded) goes to the kernel as one
//! `sendmmsg(2)` submission; portably the run still amortizes route
//! and address resolution but issues one `send_to` per datagram.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use totem_wire::{NetworkId, NodeId};

use crate::inbox::{InboxArena, SealedBatch};
use crate::{Destination, RecvBatch, SendBatch, Transport};

/// Maximum datagram the transport accepts (a Totem frame plus slack
/// for recovery encapsulation).
const MAX_DATAGRAM: usize = 64 * 1024;

/// `recvmmsg` vector size: how many datagrams one syscall may drain.
#[cfg(all(feature = "mmsg", target_os = "linux"))]
const RECV_SLOTS: usize = 16;

/// How the transport talks to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// `sendmmsg`/`recvmmsg` when compiled in (feature `mmsg`,
    /// Linux); the portable std loop otherwise.
    #[default]
    Auto,
    /// Always the portable std loop (one `send_to`/`recv_from` per
    /// datagram), even when the mmsg path is compiled in. Used by the
    /// delivery-equivalence tests and as an escape hatch.
    Portable,
}

impl IoMode {
    fn mmsg(self) -> bool {
        match self {
            IoMode::Portable => false,
            IoMode::Auto => cfg!(all(feature = "mmsg", target_os = "linux")),
        }
    }
}

/// Address map of a cluster: `addrs[node][network]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpTopology {
    addrs: Vec<Vec<SocketAddr>>,
}

impl UdpTopology {
    /// Builds a topology from an explicit address table.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or the table is empty.
    pub fn new(addrs: Vec<Vec<SocketAddr>>) -> Self {
        assert!(!addrs.is_empty(), "topology must have at least one node");
        let n = addrs[0].len();
        assert!(n > 0, "topology must have at least one network");
        assert!(addrs.iter().all(|row| row.len() == n), "all nodes need the same network count");
        UdpTopology { addrs }
    }

    /// A loopback topology: `nodes × networks` consecutive ports
    /// starting at `base_port` on 127.0.0.1.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when the port table would not fit
    /// the u16 port space (see [`UdpTopology::try_loopback`] for the
    /// fallible form). The old arithmetic wrapped silently in release
    /// builds, handing two nodes the same port.
    pub fn loopback(nodes: usize, networks: usize, base_port: u16) -> Self {
        match Self::try_loopback(nodes, networks, base_port) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`UdpTopology::loopback`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when `nodes`/`networks` is zero
    /// or `base_port + nodes * networks - 1` exceeds 65535.
    pub fn try_loopback(nodes: usize, networks: usize, base_port: u16) -> Result<Self, String> {
        if nodes == 0 || networks == 0 {
            return Err("loopback topology needs at least one node and one network".into());
        }
        let ports = nodes
            .checked_mul(networks)
            .ok_or_else(|| "loopback topology size overflows usize".to_string())?;
        let last = (base_port as usize).checked_add(ports - 1).filter(|p| *p <= u16::MAX as usize);
        if last.is_none() {
            return Err(format!(
                "loopback topology does not fit the port space: base port {base_port} + \
                 {nodes} nodes x {networks} networks needs ports up to \
                 {} but the maximum is 65535",
                base_port as usize + ports - 1
            ));
        }
        let addrs = (0..nodes)
            .map(|node| {
                (0..networks)
                    .map(|net| {
                        let port = base_port + (node * networks + net) as u16;
                        SocketAddr::from(([127, 0, 0, 1], port))
                    })
                    .collect()
            })
            .collect();
        Ok(UdpTopology::new(addrs))
    }

    /// Binds `nodes × networks` OS-assigned loopback ports up front
    /// and returns the real table together with the live sockets.
    ///
    /// This is the race-free way to get a test/example topology:
    /// probing one ephemeral port and assuming a contiguous region is
    /// free (the old idiom) flakes as soon as anything else on the
    /// host owns a port inside the guessed range. Here every port is
    /// owned from the moment it is chosen; hand the sockets straight
    /// to [`UdpTransport`] via [`BoundTopology::into_transports`].
    ///
    /// # Errors
    ///
    /// Returns the first socket bind/inspect error.
    pub fn bind_ephemeral(nodes: usize, networks: usize) -> io::Result<BoundTopology> {
        let mut rows = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let mut sockets = Vec::with_capacity(networks);
            let mut row = Vec::with_capacity(networks);
            for _ in 0..networks {
                let socket = UdpSocket::bind("127.0.0.1:0")?;
                row.push(socket.local_addr()?);
                sockets.push(socket);
            }
            rows.push(sockets);
            addrs.push(row);
        }
        Ok(BoundTopology { topology: UdpTopology::new(addrs), sockets: rows })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.addrs.len()
    }

    /// Number of networks.
    pub fn networks(&self) -> usize {
        self.addrs[0].len()
    }

    /// Address of `(node, net)`.
    pub fn addr(&self, node: NodeId, net: NetworkId) -> SocketAddr {
        self.addrs[node.index()][net.index()]
    }
}

/// A topology whose ports are already bound (see
/// [`UdpTopology::bind_ephemeral`]): the address table plus the live
/// sockets that own it.
#[derive(Debug)]
pub struct BoundTopology {
    topology: UdpTopology,
    sockets: Vec<Vec<UdpSocket>>,
}

impl BoundTopology {
    /// The address table.
    pub fn topology(&self) -> &UdpTopology {
        &self.topology
    }

    /// Converts every node's bound sockets into a running
    /// [`UdpTransport`] (index `i` belongs to node `i`).
    ///
    /// # Errors
    ///
    /// Returns the first socket configuration error.
    pub fn into_transports(self) -> io::Result<Vec<UdpTransport>> {
        self.into_transports_with(IoMode::Auto)
    }

    /// Like [`BoundTopology::into_transports`] with an explicit
    /// [`IoMode`].
    ///
    /// # Errors
    ///
    /// Returns the first socket configuration error.
    pub fn into_transports_with(self, mode: IoMode) -> io::Result<Vec<UdpTransport>> {
        let BoundTopology { topology, sockets } = self;
        sockets
            .into_iter()
            .enumerate()
            .map(|(i, row)| {
                UdpTransport::from_sockets(NodeId::new(i as u16), topology.clone(), row, mode)
            })
            .collect()
    }
}

/// A node's UDP endpoint: one bound socket per network plus reader
/// threads feeding sealed inbox batches to the driver.
#[derive(Debug)]
pub struct UdpTransport {
    me: NodeId,
    topology: UdpTopology,
    /// `peers[net]`: every other node's address on `net` — the
    /// broadcast fan-out, resolved once.
    peers: Vec<Vec<SocketAddr>>,
    sockets: Vec<UdpSocket>,
    rx: Receiver<SealedBatch>,
    /// Frames carved out of a sealed batch but not yet consumed by
    /// the single-shot [`Transport::recv_timeout`] path.
    carved: Mutex<VecDeque<(NetworkId, Bytes)>>,
    /// Whether the mmsg submission path is active (only consulted
    /// when it is compiled in).
    #[cfg_attr(not(all(feature = "mmsg", target_os = "linux")), allow(dead_code))]
    mmsg: bool,
    stop: Arc<AtomicBool>,
}

impl UdpTransport {
    /// Binds node `me`'s sockets per `topology` and starts the reader
    /// threads.
    ///
    /// # Errors
    ///
    /// Returns any socket bind/configuration error.
    pub fn bind(me: NodeId, topology: UdpTopology) -> io::Result<Self> {
        Self::bind_with(me, topology, IoMode::Auto)
    }

    /// Like [`UdpTransport::bind`] with an explicit [`IoMode`].
    ///
    /// # Errors
    ///
    /// Returns any socket bind/configuration error.
    pub fn bind_with(me: NodeId, topology: UdpTopology, mode: IoMode) -> io::Result<Self> {
        let mut sockets = Vec::with_capacity(topology.networks());
        for net in 0..topology.networks() {
            let net_id = NetworkId::new(net as u8);
            sockets.push(UdpSocket::bind(topology.addr(me, net_id))?);
        }
        Self::from_sockets(me, topology, sockets, mode)
    }

    /// Adopts already-bound sockets (one per network, in network
    /// order — see [`UdpTopology::bind_ephemeral`]) and starts the
    /// reader threads.
    ///
    /// # Errors
    ///
    /// Returns any socket configuration error, or `InvalidInput` if
    /// the socket count does not match the topology's network count.
    pub fn from_sockets(
        me: NodeId,
        topology: UdpTopology,
        sockets: Vec<UdpSocket>,
        mode: IoMode,
    ) -> io::Result<Self> {
        if sockets.len() != topology.networks() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "one socket per network required",
            ));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        for (net, socket) in sockets.iter().enumerate() {
            let net_id = NetworkId::new(net as u8);
            socket.set_read_timeout(Some(Duration::from_millis(50)))?;
            spawn_reader(socket.try_clone()?, net_id, tx.clone(), stop.clone(), mode);
        }
        let peers = (0..topology.networks())
            .map(|net| {
                (0..topology.nodes())
                    .filter(|&node| node != me.index())
                    .map(|node| topology.addrs[node][net])
                    .collect()
            })
            .collect();
        Ok(UdpTransport {
            me,
            topology,
            peers,
            sockets,
            rx,
            carved: Mutex::new(VecDeque::new()),
            mmsg: mode.mmsg(),
            stop,
        })
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The topology this endpoint participates in.
    pub fn topology(&self) -> &UdpTopology {
        &self.topology
    }

    /// The concrete socket addresses `(net, dst)` stands for, borrowed
    /// from the tables built at construction (broadcast fans out to
    /// every peer).
    fn resolve(&self, net: NetworkId, dst: Destination) -> &[SocketAddr] {
        match dst {
            Destination::Broadcast => &self.peers[net.index()],
            Destination::Node(d) => {
                std::slice::from_ref(&self.topology.addrs[d.index()][net.index()])
            }
        }
    }

    /// Submits one contiguous same-network run of frames. Returns the
    /// number of *frames* fully submitted; a frame counts only when
    /// every fan-out datagram went.
    fn send_run(&self, net: NetworkId, frames: &[crate::SendFrame]) -> io::Result<usize> {
        let socket = &self.sockets[net.index()];

        #[cfg(all(feature = "mmsg", target_os = "linux"))]
        if self.mmsg {
            // Expand fan-out once, then submit the whole run as
            // sendmmsg vectors; fall back to the portable loop when a
            // destination is not IPv4 (the shim only speaks
            // sockaddr_in).
            let mut msgs: Vec<(&[u8], std::net::SocketAddrV4)> = Vec::new();
            let mut frame_end = Vec::with_capacity(frames.len());
            let mut all_v4 = true;
            for f in frames {
                for a in self.resolve(net, f.dst) {
                    match a {
                        SocketAddr::V4(v4) => msgs.push((f.payload.as_ref(), *v4)),
                        SocketAddr::V6(_) => {
                            all_v4 = false;
                            break;
                        }
                    }
                }
                if !all_v4 {
                    break;
                }
                frame_end.push(msgs.len());
            }
            if all_v4 {
                let sent_datagrams = crate::sys::send_many(socket, &msgs)?;
                return Ok(frame_end.iter().take_while(|&&end| end <= sent_datagrams).count());
            }
        }

        let mut sent = 0usize;
        for f in frames {
            for (i, a) in self.resolve(net, f.dst).iter().enumerate() {
                match socket.send_to(&f.payload, a) {
                    Ok(_) => {}
                    // A frame is "sent" only when all its datagrams
                    // went; surface the error so the caller can apply
                    // first-frame-vs-partial semantics.
                    Err(e) if sent == 0 && i == 0 => return Err(e),
                    Err(_) => return Ok(sent),
                }
            }
            sent += 1;
        }
        Ok(sent)
    }

    /// Carves `batch` into the single-shot leftover queue.
    fn carve(&self, batch: SealedBatch) {
        let mut carved = self.carved.lock();
        let net = batch.net();
        for frame in batch.iter() {
            carved.push_back((net, frame));
        }
    }
}

fn spawn_reader(
    socket: UdpSocket,
    net: NetworkId,
    tx: Sender<SealedBatch>,
    stop: Arc<AtomicBool>,
    mode: IoMode,
) {
    std::thread::Builder::new()
        .name(format!("totem-udp-{net}"))
        .spawn(move || {
            if mode.mmsg() {
                #[cfg(all(feature = "mmsg", target_os = "linux"))]
                {
                    run_reader_mmsg(&socket, net, &tx, &stop);
                    return;
                }
            }
            run_reader_portable(&socket, net, &tx, &stop);
        })
        .expect("spawn udp reader thread");
}

/// Portable reader: one blocking `recv_from` (bounded by the 50 ms
/// read timeout, which doubles as the stop-flag poll), then a
/// non-blocking drain of everything else queued, one arena seal, one
/// channel send for the whole batch.
fn run_reader_portable(
    socket: &UdpSocket,
    net: NetworkId,
    tx: &Sender<SealedBatch>,
    stop: &AtomicBool,
) {
    let mut scratch = vec![0u8; MAX_DATAGRAM];
    let mut arena = InboxArena::new(net);
    while !stop.load(Ordering::Relaxed) {
        match socket.recv_from(&mut scratch) {
            Ok((len, _peer)) => {
                arena.push(&scratch[..len]);
                if socket.set_nonblocking(true).is_ok() {
                    while !arena.full() {
                        match socket.recv_from(&mut scratch) {
                            Ok((len, _peer)) => arena.push(&scratch[..len]),
                            Err(_) => break,
                        }
                    }
                    let _ = socket.set_nonblocking(false);
                }
                if let Some(batch) = arena.seal() {
                    if tx.send(batch).is_err() {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

/// mmsg reader: one `recvmmsg(MSG_WAITFORONE)` per batch — the
/// blocking wait for the first datagram and the drain of the rest are
/// the same syscall.
#[cfg(all(feature = "mmsg", target_os = "linux"))]
fn run_reader_mmsg(
    socket: &UdpSocket,
    net: NetworkId,
    tx: &Sender<SealedBatch>,
    stop: &AtomicBool,
) {
    let mut slots = crate::sys::RecvSlots::new(RECV_SLOTS, MAX_DATAGRAM);
    let mut arena = InboxArena::new(net);
    while !stop.load(Ordering::Relaxed) {
        match crate::sys::recv_many(socket, &mut slots, true) {
            Ok(0) => {}
            Ok(n) => {
                for i in 0..n {
                    arena.push(slots.datagram(i));
                }
                if let Some(batch) = arena.seal() {
                    if tx.send(batch).is_err() {
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

impl Transport for UdpTransport {
    fn networks(&self) -> usize {
        self.topology.networks()
    }

    fn send(&self, net: NetworkId, dst: Destination, payload: Bytes) -> io::Result<()> {
        let socket = &self.sockets[net.index()];
        for a in self.resolve(net, dst) {
            socket.send_to(&payload, a)?;
        }
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<(NetworkId, Bytes)> {
        if let Some(frame) = self.carved.lock().pop_front() {
            return Some(frame);
        }
        let batch = self.rx.recv_timeout(timeout).ok()?;
        self.carve(batch);
        self.carved.lock().pop_front()
    }

    fn send_batch(&self, batch: &mut SendBatch) -> io::Result<usize> {
        let mut total = 0usize;
        while !batch.is_empty() {
            let pending = batch.pending();
            let net = pending[0].net;
            let run = pending.iter().take_while(|f| f.net == net).count();
            match self.send_run(net, &pending[..run]) {
                Ok(sent) => {
                    batch.advance(sent);
                    total += sent;
                    if sent < run {
                        break; // partial run: transient backpressure
                    }
                }
                Err(e) if total == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok(total)
    }

    fn recv_batch(&self, out: &mut RecvBatch, timeout: Duration) -> usize {
        let mut got = 0usize;
        {
            let mut carved = self.carved.lock();
            while out.space() > 0 {
                match carved.pop_front() {
                    Some((net, frame)) => {
                        out.push(net, frame);
                        got += 1;
                    }
                    None => break,
                }
            }
        }
        loop {
            if out.space() == 0 {
                break;
            }
            let wait = if got == 0 { timeout } else { Duration::ZERO };
            match self.rx.recv_timeout(wait) {
                Ok(batch) => {
                    // A sealed batch is carved in whole (it shares one
                    // arena); the cap only gates pulling further
                    // batches.
                    let net = batch.net();
                    for frame in batch.iter() {
                        out.push(net, frame);
                        got += 1;
                    }
                }
                Err(_) => break,
            }
        }
        got
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Reader threads wake within their 50 ms read timeout and exit.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_topology_assigns_consecutive_ports() {
        let t = UdpTopology::loopback(2, 2, 30_000);
        assert_eq!(t.addr(NodeId::new(0), NetworkId::new(0)).port(), 30_000);
        assert_eq!(t.addr(NodeId::new(0), NetworkId::new(1)).port(), 30_001);
        assert_eq!(t.addr(NodeId::new(1), NetworkId::new(0)).port(), 30_002);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.networks(), 2);
    }

    #[test]
    fn loopback_port_overflow_is_reported_not_wrapped() {
        let err = UdpTopology::try_loopback(200, 2, 65_500).unwrap_err();
        assert!(err.contains("65535"), "message names the port-space limit: {err}");
        assert!(UdpTopology::try_loopback(2, 2, 65_532).is_ok(), "exactly fitting is fine");
        assert!(UdpTopology::try_loopback(2, 2, 65_533).is_err(), "one past the end is not");
        assert!(UdpTopology::try_loopback(0, 2, 1024).is_err(), "zero nodes rejected");
    }

    #[test]
    #[should_panic(expected = "does not fit the port space")]
    fn loopback_overflow_panics_with_a_clear_message() {
        let _ = UdpTopology::loopback(1000, 1000, 60_000);
    }

    #[test]
    fn bind_ephemeral_returns_the_real_table() {
        let bound = UdpTopology::bind_ephemeral(3, 2).expect("bind");
        let topo = bound.topology().clone();
        assert_eq!(topo.nodes(), 3);
        assert_eq!(topo.networks(), 2);
        // All six ports are distinct and owned.
        let mut ports: Vec<u16> = (0..3)
            .flat_map(|n| {
                let topo = topo.clone();
                (0..2).map(move |net| topo.addr(NodeId::new(n), NetworkId::new(net)).port())
            })
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 6);

        // And the adopted sockets really serve those addresses.
        let transports = bound.into_transports().expect("adopt");
        transports[0]
            .send(NetworkId::new(1), Destination::Node(NodeId::new(2)), Bytes::from_static(b"hi"))
            .unwrap();
        let (net, data) = transports[2].recv_timeout(Duration::from_secs(2)).expect("datagram");
        assert_eq!((net, data.as_ref()), (NetworkId::new(1), b"hi".as_slice()));
    }

    #[test]
    fn datagrams_flow_between_endpoints_on_both_networks() {
        let bound = UdpTopology::bind_ephemeral(2, 2).expect("bind");
        let mut ts = bound.into_transports().expect("adopt");
        let b = ts.pop().unwrap();
        let a = ts.pop().unwrap();

        a.send(NetworkId::new(0), Destination::Broadcast, Bytes::from_static(b"net0")).unwrap();
        a.send(NetworkId::new(1), Destination::Node(NodeId::new(1)), Bytes::from_static(b"net1"))
            .unwrap();

        let mut got = Vec::new();
        for _ in 0..2 {
            let (net, data) = b.recv_timeout(Duration::from_secs(2)).expect("datagram");
            got.push((net.as_u8(), data.to_vec()));
        }
        got.sort();
        assert_eq!(got, vec![(0, b"net0".to_vec()), (1, b"net1".to_vec())]);
    }

    #[test]
    fn batched_send_and_recv_round_trip() {
        let bound = UdpTopology::bind_ephemeral(3, 2).expect("bind");
        let mut ts = bound.into_transports().expect("adopt");
        let c = ts.pop().unwrap();
        let b = ts.pop().unwrap();
        let a = ts.pop().unwrap();

        let mut batch = SendBatch::new();
        for i in 0..8u8 {
            batch.push(NetworkId::new(i % 2), Destination::Broadcast, Bytes::copy_from_slice(&[i]));
        }
        batch.push(NetworkId::new(0), Destination::Node(NodeId::new(1)), Bytes::from_static(b"tt"));
        let sent = a.send_batch(&mut batch).expect("batch sends");
        assert_eq!(sent, 9);
        assert!(batch.is_empty());

        // b gets all 8 broadcasts plus the unicast; c only the 8.
        let mut bb = RecvBatch::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while bb.len() < 9 && std::time::Instant::now() < deadline {
            b.recv_batch(&mut bb, Duration::from_millis(200));
        }
        assert_eq!(bb.len(), 9, "b sees broadcasts and the unicast");
        // Per-network arrival order is preserved through the arena.
        let per_net: Vec<Vec<u8>> = (0..2)
            .map(|net| {
                bb.iter()
                    .filter(|(n, d)| n.as_u8() == net && d.len() == 1)
                    .map(|(_, d)| d[0])
                    .collect()
            })
            .collect();
        assert_eq!(per_net[0], vec![0, 2, 4, 6]);
        assert_eq!(per_net[1], vec![1, 3, 5, 7]);

        let mut cb = RecvBatch::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cb.len() < 8 && std::time::Instant::now() < deadline {
            c.recv_batch(&mut cb, Duration::from_millis(200));
        }
        assert_eq!(cb.len(), 8, "c sees only the broadcasts");
    }

    #[test]
    fn single_shot_recv_consumes_carved_batches() {
        let bound = UdpTopology::bind_ephemeral(2, 1).expect("bind");
        let mut ts = bound.into_transports().expect("adopt");
        let b = ts.pop().unwrap();
        let a = ts.pop().unwrap();
        for i in 0..5u8 {
            a.send(
                NetworkId::new(0),
                Destination::Node(NodeId::new(1)),
                Bytes::copy_from_slice(&[i]),
            )
            .unwrap();
        }
        // However the datagrams were batched by the reader, the
        // single-shot path hands them out one at a time, in order.
        let mut got = Vec::new();
        for _ in 0..5 {
            let (_, d) = b.recv_timeout(Duration::from_secs(2)).expect("datagram");
            got.push(d[0]);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "same network count")]
    fn ragged_topology_is_rejected() {
        let _ = UdpTopology::new(vec![vec![SocketAddr::from(([127, 0, 0, 1], 1000))], vec![]]);
    }

    /// With the `mmsg` feature on Linux, the mmsg and portable paths
    /// must deliver the exact same frames (the wire contract the
    /// driver relies on). Without the feature both endpoints take the
    /// portable path and the test still pins the contract.
    #[test]
    fn io_modes_are_delivery_equivalent() {
        let bound = UdpTopology::bind_ephemeral(2, 2).expect("bind");
        let topo = bound.topology().clone();
        let BoundTopology { sockets, .. } = bound;
        let mut rows = sockets.into_iter();
        let a = UdpTransport::from_sockets(
            NodeId::new(0),
            topo.clone(),
            rows.next().unwrap(),
            IoMode::Auto,
        )
        .expect("auto endpoint");
        let b = UdpTransport::from_sockets(
            NodeId::new(1),
            topo,
            rows.next().unwrap(),
            IoMode::Portable,
        )
        .expect("portable endpoint");

        let payloads: Vec<Bytes> =
            (0..20u8).map(|i| Bytes::from(vec![i; 32 + i as usize])).collect();

        // auto/mmsg -> portable.
        let mut batch = SendBatch::new();
        for p in &payloads {
            batch.push(NetworkId::new(0), Destination::Node(NodeId::new(1)), p.clone());
        }
        a.send_batch(&mut batch).expect("send");
        let mut got = RecvBatch::with_max(64);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < payloads.len() && std::time::Instant::now() < deadline {
            b.recv_batch(&mut got, Duration::from_millis(200));
        }
        let received: Vec<Bytes> = got.iter().map(|(_, d)| d.clone()).collect();
        assert_eq!(received, payloads, "portable endpoint sees the mmsg batch in order");

        // portable -> auto/mmsg.
        let mut batch = SendBatch::new();
        for p in &payloads {
            batch.push(NetworkId::new(1), Destination::Node(NodeId::new(0)), p.clone());
        }
        b.send_batch(&mut batch).expect("send");
        let mut got = RecvBatch::with_max(64);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < payloads.len() && std::time::Instant::now() < deadline {
            a.recv_batch(&mut got, Duration::from_millis(200));
        }
        let received: Vec<Bytes> = got.iter().map(|(_, d)| d.clone()).collect();
        assert_eq!(received, payloads, "mmsg endpoint sees the portable batch in order");
    }
}
