//! Real UDP transport: one socket per redundant network, batched.
//!
//! The paper's testbed gave every workstation one NIC per network; the
//! analogue here is one bound UDP socket per network per node. A
//! [`UdpTopology`] maps `(node, network) → SocketAddr`. Broadcast is
//! emulated by unicast fan-out to all peers on that network, so
//! everything runs on 127.0.0.1 without multicast setup; on a real
//! segmented LAN the same topology works with per-subnet addresses.
//!
//! **Receive path: the driver reads its own sockets.** The sockets are
//! non-blocking from construction on. [`Transport::recv_batch`] drains
//! every socket, on the calling thread, into that network's
//! [`InboxArena`] and carves the sealed batches into the caller's
//! batch — frames are zero-copy `Bytes` slices of the batch's
//! exact-size allocation: no per-datagram allocation, no queue, no
//! second thread. Only when every socket is dry does it wait, in one
//! `ppoll(2)` over all of them, for the caller's timeout at nanosecond
//! precision (the 200 µs idle-token hold depends on it). So the thread
//! the kernel wakes for a datagram is the thread that runs the
//! protocol on it: one wake-up per token hop.
//!
//! **Send path: one transmitter thread per network.** Each socket has
//! a `totem-udp-<net>` thread, the software stand-in for that
//! network's NIC. [`Transport::send_batch`] cuts a batch into
//! contiguous same-network runs and hands each run to its network's
//! thread through a FIFO queue, then returns: the driver is back at
//! its sockets while the datagrams go out on another core. The one
//! exception is a run of at most [`INLINE_RUN_MAX`] frames on a
//! network whose thread has nothing queued or in flight, which the
//! caller sends itself — forwarding a token must not cost a thread
//! wake-up. Either way a network's datagrams leave in submission
//! order: the token never overtakes the data it covers. A send that
//! would block is the network thread's to wait out (`POLLOUT`); it is
//! never a dropped datagram and never a stalled driver.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use totem_wire::{NetworkId, NodeId};

use crate::inbox::InboxArena;
use crate::sys::{self, PollFd};
use crate::{Destination, RecvBatch, SendBatch, SendFrame, Transport};

/// Maximum datagram the transport accepts (a Totem frame plus slack
/// for recovery encapsulation).
const MAX_DATAGRAM: usize = 64 * 1024;

/// Longest run the caller of a send sends itself when its network's
/// thread is idle: a token, or one frame and the token behind it.
/// Anything longer is worth a wake-up — the thread sends while the
/// driver goes back to its sockets. (Measured: always queueing read
/// `udp-paced` p50 459 µs against 430 µs with this rule.)
pub const INLINE_RUN_MAX: usize = 2;

/// How long a network thread waits for `POLLOUT` before it looks at
/// its stop flag again.
const WRITABLE_POLL: Duration = Duration::from_millis(10);

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
        let BoundTopology { topology, sockets } = self;
        sockets
            .into_iter()
            .enumerate()
            .map(|(i, row)| {
                UdpTransport::from_sockets(NodeId::new(i as u16), topology.clone(), row)
            })
            .collect()
    }
}

/// One network of a node: its socket and the queue in front of the
/// thread that transmits on it.
#[derive(Debug)]
struct Link {
    socket: UdpSocket,
    queue: Mutex<TxQueue>,
    /// Signalled when the queue gets work for an idle thread, and on
    /// stop.
    work: Condvar,
}

#[derive(Debug, Default)]
struct TxQueue {
    frames: VecDeque<(Destination, Bytes)>,
    /// The thread has frames queued or in flight: whatever is sent on
    /// this network now must queue behind them.
    busy: bool,
    stop: bool,
}

/// Both mutexes in this module guard plain queues that every update
/// leaves valid, so a panicking peer's poison is not an error here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Link {
    /// True when nothing is queued or in flight on this network, so a
    /// send from the calling thread overtakes nothing.
    fn idle(&self) -> bool {
        !lock(&self.queue).busy
    }

    /// Queues `frames` behind whatever is there and wakes the thread
    /// if it was idle.
    fn enqueue(&self, frames: impl Iterator<Item = (Destination, Bytes)>) {
        let wake = {
            let mut queue = lock(&self.queue);
            queue.frames.extend(frames);
            !std::mem::replace(&mut queue.busy, true)
        };
        if wake {
            self.work.notify_one();
        }
    }

    /// The network thread's wait: blocks until frames are queued and
    /// moves all of them into `batch` (empty on entry; the two deques
    /// trade places, so neither allocates once grown). Returns `false`
    /// when the transport is shutting down.
    fn take(&self, batch: &mut VecDeque<(Destination, Bytes)>) -> bool {
        let mut queue = lock(&self.queue);
        loop {
            if queue.stop {
                return false;
            }
            if !queue.frames.is_empty() {
                std::mem::swap(&mut queue.frames, batch);
                return true;
            }
            queue.busy = false;
            queue = self.work.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits until the socket takes datagrams again. Returns `false`
    /// when the transport is shutting down instead.
    fn wait_writable(&self) -> bool {
        if lock(&self.queue).stop {
            return false;
        }
        // Timeout, readiness and a failed wait all lead to the same
        // next step: try the send again.
        let _ = sys::wait(&mut [PollFd::writable(&self.socket)], WRITABLE_POLL);
        true
    }
}

/// What the driver's side of a transport shares with its network
/// threads.
#[derive(Debug)]
struct Shared {
    me: NodeId,
    topology: UdpTopology,
    /// Every other node — the broadcast fan-out, resolved once.
    others: Vec<NodeId>,
    links: Vec<Link>,
}

impl Shared {
    /// The nodes `dst` stands for.
    fn targets<'a>(&'a self, dst: &'a Destination) -> &'a [NodeId] {
        match dst {
            Destination::Broadcast => &self.others,
            Destination::Node(node) => std::slice::from_ref(node),
        }
    }

    /// Sends `payload` on network `net` to each node `dst` stands for,
    /// starting with the `from`-th. An error names the datagram that
    /// did not go, so a send that would block resumes exactly there.
    fn transmit(
        &self,
        net: usize,
        dst: &Destination,
        payload: &[u8],
        from: usize,
    ) -> Result<(), (usize, io::Error)> {
        let socket = &self.links[net].socket;
        for (i, node) in self.targets(dst).iter().enumerate().skip(from) {
            let sent = match self.topology.addrs.get(node.index()) {
                Some(row) => socket.send_to(payload, row[net]),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "no such node")),
            };
            if let Err(e) = sent {
                return Err((i, e));
            }
        }
        Ok(())
    }

    /// A network thread: transmits what the driver queues, in order.
    fn run_link(&self, net: usize) {
        let link = &self.links[net];
        let mut batch = VecDeque::new();
        while link.take(&mut batch) {
            for (dst, payload) in batch.drain(..) {
                let mut from = 0;
                while let Err((at, e)) = self.transmit(net, &dst, &payload, from) {
                    // A full socket is waited out and the send resumed;
                    // any other failure is packet loss, which the
                    // protocol repairs.
                    if e.kind() != io::ErrorKind::WouldBlock || !link.wait_writable() {
                        break;
                    }
                    from = at;
                }
            }
        }
    }
}

/// The receive side's state, touched only by the thread inside
/// `recv_batch` / `recv_timeout`.
#[derive(Debug)]
struct Inbox {
    /// Frames carved out of a sealed batch but not yet consumed by
    /// the single-shot [`Transport::recv_timeout`] path.
    carved: VecDeque<(NetworkId, Bytes)>,
    sockets: Drain,
}

#[derive(Debug)]
struct Drain {
    /// One arena per socket, in network order.
    arenas: Vec<InboxArena>,
    /// One `POLLIN` entry per socket, for the wait.
    fds: Vec<PollFd>,
    /// Where the kernel puts a datagram before the arena copies it.
    scratch: Vec<u8>,
    /// The network the next drain starts with; it rotates so that a
    /// saturated socket cannot starve the others.
    first: usize,
}

/// A node's UDP endpoint: one bound socket per network, drained by
/// whichever thread calls the receive methods (the driver), plus one
/// transmitter thread per network.
#[derive(Debug)]
pub struct UdpTransport {
    shared: Arc<Shared>,
    inbox: Mutex<Inbox>,
    threads: Vec<JoinHandle<()>>,
}

impl UdpTransport {
    /// Binds node `me`'s sockets per `topology` and starts the network
    /// threads.
    ///
    /// # Errors
    ///
    /// Returns any socket bind/configuration error.
    pub fn bind(me: NodeId, topology: UdpTopology) -> io::Result<Self> {
        let mut sockets = Vec::with_capacity(topology.networks());
        for net in 0..topology.networks() {
            let net_id = NetworkId::new(net as u8);
            sockets.push(UdpSocket::bind(topology.addr(me, net_id))?);
        }
        Self::from_sockets(me, topology, sockets)
    }

    /// Adopts already-bound sockets (one per network, in network
    /// order — see [`UdpTopology::bind_ephemeral`]), makes them
    /// non-blocking once and for all, and starts the network threads.
    ///
    /// # Errors
    ///
    /// Returns any socket configuration or thread spawn error, or
    /// `InvalidInput` if the socket count does not match the
    /// topology's network count.
    pub fn from_sockets(
        me: NodeId,
        topology: UdpTopology,
        sockets: Vec<UdpSocket>,
    ) -> io::Result<Self> {
        if sockets.len() != topology.networks() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "one socket per network required",
            ));
        }
        let net_id = |net: usize| NetworkId::new(net as u8);
        let nets = sockets.len();
        for socket in &sockets {
            socket.set_nonblocking(true)?;
        }
        let inbox = Inbox {
            carved: VecDeque::new(),
            sockets: Drain {
                arenas: (0..nets).map(|net| InboxArena::new(net_id(net))).collect(),
                fds: sockets.iter().map(PollFd::readable).collect(),
                scratch: vec![0u8; MAX_DATAGRAM],
                first: 0,
            },
        };
        let others =
            (0..topology.nodes() as u16).map(NodeId::new).filter(|node| *node != me).collect();
        let links = sockets
            .into_iter()
            .map(|socket| Link { socket, queue: Mutex::default(), work: Condvar::new() })
            .collect();
        let shared = Arc::new(Shared { me, topology, others, links });
        // Built before the threads are, so that a failed spawn drops
        // it and its `Drop` stops the threads already running.
        let mut transport = UdpTransport { shared, inbox: Mutex::new(inbox), threads: Vec::new() };
        for net in 0..nets {
            let shared = transport.shared.clone();
            let thread = std::thread::Builder::new()
                .name(format!("totem-udp-{}", net_id(net)))
                .spawn(move || shared.run_link(net))?;
            transport.threads.push(thread);
        }
        Ok(transport)
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.shared.me
    }

    /// The topology this endpoint participates in.
    pub fn topology(&self) -> &UdpTopology {
        &self.shared.topology
    }

    /// Submits one contiguous same-network run of frames. Returns the
    /// number of *frames* submitted — sent, or queued for the network
    /// thread, which does not give up on them.
    fn send_run(&self, net: NetworkId, frames: &[SendFrame]) -> io::Result<usize> {
        let link = &self.shared.links[net.index()];
        if frames.len() > INLINE_RUN_MAX || !link.idle() {
            link.enqueue(frames.iter().map(|f| (f.dst, f.payload.clone())));
            return Ok(frames.len());
        }
        for (i, f) in frames.iter().enumerate() {
            match self.shared.transmit(net.index(), &f.dst, &f.payload, 0) {
                Ok(()) => {}
                Err((at, e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.hand_over(net, &frames[i..], at);
                    return Ok(frames.len());
                }
                // A frame is "sent" only when all its datagrams went;
                // surface the error so the caller can apply
                // first-frame-vs-partial semantics.
                Err((0, e)) if i == 0 => return Err(e),
                Err(_) => return Ok(i),
            }
        }
        Ok(frames.len())
    }

    /// An inline send found the socket full at the `at`-th datagram of
    /// `frames[0]`: the network thread takes over from exactly there —
    /// the rest of that frame's fan-out as unicasts, then the rest of
    /// the run — and does the waiting.
    fn hand_over(&self, net: NetworkId, frames: &[SendFrame], at: usize) {
        let Some((first, rest)) = frames.split_first() else { return };
        let fan_out = self.shared.targets(&first.dst)[at..]
            .iter()
            .map(|node| (Destination::Node(*node), first.payload.clone()));
        let rest = rest.iter().map(|f| (f.dst, f.payload.clone()));
        self.shared.links[net.index()].enqueue(fan_out.chain(rest));
    }

    /// Empties the sockets into their arenas and carves the sealed
    /// batches into `sink`, starting a new batch only while fewer than
    /// `room` frames have been carved (a batch is carved in whole: it
    /// shares one allocation, so the cap only gates pulling further
    /// batches). When every socket is dry, waits up to `timeout` for
    /// one of them and drains again. Returns the frames carved.
    fn pull(
        &self,
        drain: &mut Drain,
        timeout: Duration,
        room: usize,
        mut sink: impl FnMut(NetworkId, Bytes),
    ) -> usize {
        if room == 0 {
            return 0;
        }
        let mut deadline = None;
        loop {
            let nets = drain.arenas.len();
            let mut got = 0;
            for net in (0..nets).map(|i| (drain.first + i) % nets) {
                if got >= room {
                    break;
                }
                let (socket, arena) = (&self.shared.links[net].socket, &mut drain.arenas[net]);
                while !arena.full() {
                    // Any error ends this socket's turn: it is dry, or
                    // it has reported (and so cleared) a failure.
                    let Ok(len) = socket.recv(&mut drain.scratch) else { break };
                    arena.push(&drain.scratch[..len]);
                }
                if let Some(batch) = arena.seal() {
                    got += batch.frames();
                    batch.iter().for_each(|frame| sink(batch.net(), frame));
                }
            }
            drain.first = (drain.first + 1) % nets;
            if got > 0 || timeout.is_zero() {
                return got;
            }
            let now = Instant::now();
            let left = deadline.get_or_insert(now + timeout).saturating_duration_since(now);
            match sys::wait(&mut drain.fds, left) {
                Ok(true) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Timed out — or the wait failed, and the caller's
                // budget is spent some other way.
                Ok(false) | Err(_) => return 0,
            }
        }
    }
}

impl Transport for UdpTransport {
    fn networks(&self) -> usize {
        self.shared.links.len()
    }

    fn send(&self, net: NetworkId, dst: Destination, payload: Bytes) -> io::Result<()> {
        self.send_run(net, &[SendFrame { net, dst, payload }]).map(|_| ())
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<(NetworkId, Bytes)> {
        let mut inbox = lock(&self.inbox);
        let Inbox { carved, sockets } = &mut *inbox;
        if carved.is_empty() {
            self.pull(sockets, timeout, 1, |net, frame| carved.push_back((net, frame)));
        }
        carved.pop_front()
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
                        break; // partial run: the failed frame stays pending
                    }
                }
                Err(e) if total == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok(total)
    }

    fn recv_batch(&self, out: &mut RecvBatch, timeout: Duration) -> usize {
        let mut inbox = lock(&self.inbox);
        let Inbox { carved, sockets } = &mut *inbox;
        let mut got = 0usize;
        while out.space() > 0 {
            let Some((net, frame)) = carved.pop_front() else { break };
            out.push(net, frame);
            got += 1;
        }
        // With leftovers in hand, take what else is there but do not
        // wait for more.
        let timeout = if got == 0 { timeout } else { Duration::ZERO };
        got + self.pull(sockets, timeout, out.space(), |net, frame| out.push(net, frame))
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        for link in &self.shared.links {
            lock(&link.queue).stop = true;
            link.work.notify_one();
        }
        for thread in self.threads.drain(..) {
            // A network thread that panicked has nothing left to stop.
            let _ = thread.join();
        }
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
        let deadline = Instant::now() + Duration::from_secs(5);
        while bb.len() < 9 && Instant::now() < deadline {
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
        let deadline = Instant::now() + Duration::from_secs(5);
        while cb.len() < 8 && Instant::now() < deadline {
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

    /// Receives on `t` until `want` frames are in, or five seconds
    /// have passed.
    fn receive(t: &UdpTransport, want: usize) -> Vec<(NetworkId, Bytes)> {
        let mut got = Vec::new();
        let mut batch = RecvBatch::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < want && Instant::now() < deadline {
            t.recv_batch(&mut batch, Duration::from_millis(200));
            got.extend(batch.drain());
        }
        got
    }

    fn numbered(i: u16) -> Bytes {
        Bytes::copy_from_slice(&i.to_be_bytes())
    }

    fn numbers(frames: &[(NetworkId, Bytes)], net: u8) -> Vec<u16> {
        frames
            .iter()
            .filter(|(n, _)| n.as_u8() == net)
            .map(|(_, d)| u16::from_be_bytes([d[0], d[1]]))
            .collect()
    }

    /// The token never overtakes its data: a long run goes to the
    /// network thread, and a lone frame sent right behind it — short
    /// enough for the caller to send itself — finds that thread busy
    /// and queues behind the run. Twice in a row, so the second run
    /// meets a queue that may still hold the first.
    #[test]
    fn a_lone_frame_queues_behind_the_run_ahead_of_it() {
        let mut ts = UdpTopology::bind_ephemeral(3, 1).expect("bind").into_transports().unwrap();
        let b = ts.remove(1);
        let a = ts.remove(0);
        let net = NetworkId::new(0);
        let mut next = 0u16;
        for _ in 0..2 {
            let mut run = SendBatch::new();
            for _ in 0..40 {
                run.push(net, Destination::Broadcast, numbered(next));
                next += 1;
            }
            assert_eq!(a.send_batch(&mut run).expect("run queued"), 40);
            a.send(net, Destination::Node(NodeId::new(1)), numbered(next)).expect("token queued");
            next += 1;
        }
        let got = receive(&b, next as usize);
        assert_eq!(numbers(&got, 0), (0..next).collect::<Vec<_>>(), "submission order");
    }

    /// The would-block path: an inline send that found the socket full
    /// hands its frame to the network thread, and whatever the caller
    /// sends next waits its turn behind it.
    #[test]
    fn a_handed_over_send_keeps_its_place() {
        let mut ts = UdpTopology::bind_ephemeral(2, 1).expect("bind").into_transports().unwrap();
        let b = ts.remove(1);
        let a = ts.remove(0);
        let net = NetworkId::new(0);
        let to_b = Destination::Node(NodeId::new(1));
        for i in 0..50u16 {
            let blocked = SendFrame { net, dst: Destination::Broadcast, payload: numbered(2 * i) };
            a.hand_over(net, std::slice::from_ref(&blocked), 0);
            a.send(net, to_b, numbered(2 * i + 1)).expect("queued or sent");
        }
        let got = receive(&b, 100);
        assert_eq!(numbers(&got, 0), (0..100).collect::<Vec<_>>(), "submission order");
    }

    /// The 200 µs idle-token hold is a `recv_batch` timeout: it must
    /// not return early, and it must not be rounded up to `poll`'s
    /// milliseconds.
    #[test]
    fn a_sub_millisecond_wait_is_neither_early_nor_rounded_up() {
        let mut ts = UdpTopology::bind_ephemeral(1, 2).expect("bind").into_transports().unwrap();
        let t = ts.remove(0);
        let hold = Duration::from_micros(200);
        let mut out = RecvBatch::new();
        let mut waits: Vec<Duration> = (0..50)
            .map(|_| {
                let started = Instant::now();
                assert_eq!(t.recv_batch(&mut out, hold), 0);
                started.elapsed()
            })
            .collect();
        waits.sort();
        assert!(waits[0] >= hold, "shortest wait {:?} returned early", waits[0]);
        assert!(waits[25] < Duration::from_millis(1), "median wait {:?}", waits[25]);
    }

    /// A burst larger than any one fill, split over both sockets:
    /// everything arrives, each network's order is kept, and the fills
    /// alternate between the sockets instead of emptying one first.
    #[test]
    fn a_burst_on_both_sockets_drains_complete_in_order_and_fairly() {
        use crate::inbox::MAX_BATCH_FRAMES;
        let mut ts = UdpTopology::bind_ephemeral(2, 2).expect("bind").into_transports().unwrap();
        let b = ts.remove(1);
        let a = ts.remove(0);
        let per_net = (3 * MAX_BATCH_FRAMES / 2) as u16;
        for i in 0..per_net {
            for net in 0..2 {
                // One frame at a time on an idle network: sent by this
                // thread, so it is in b's socket when `send` returns.
                a.send(NetworkId::new(net), Destination::Broadcast, numbered(i)).unwrap();
            }
        }
        let mut fill = RecvBatch::new();
        let mut got = Vec::new();
        for call in 0..2 {
            assert!(b.recv_batch(&mut fill, Duration::from_secs(2)) > 0, "fill {call}");
            got.extend(fill.drain());
        }
        for net in 0..2 {
            assert!(!numbers(&got, net).is_empty(), "network {net} starved for two fills");
        }
        got.extend(receive(&b, 2 * per_net as usize - got.len()));
        for net in 0..2 {
            assert_eq!(numbers(&got, net), (0..per_net).collect::<Vec<_>>(), "network {net}");
        }
    }
}
