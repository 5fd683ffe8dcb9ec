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
//! protocol on it: one wake-up per token hop. Each socket asks for
//! `UDP_GRO`, so a segment train (below) arrives as one read; the read
//! reports the train's segment size and is split back into the
//! datagrams it was sent as, one arena frame each — every layer above
//! sees exactly the frames a datagram-per-frame sender would produce.
//!
//! **Send path: one transmitter thread per network.** Each socket has
//! a `totem-udp-<net>` thread, the software stand-in for that
//! network's NIC. [`Transport::send_batch`] cuts a batch into
//! contiguous same-network runs and hands each run to its network's
//! thread through a FIFO queue, then returns: the driver is back at
//! its sockets while the datagrams go out on another core. The thread
//! cuts what it takes into *segment trains* ([`for_each_train`]) and
//! sends each train to each of its peers in one `sendmsg` that the
//! kernel cuts into datagrams (`UDP_SEGMENT`): on loopback one packet
//! per train and peer instead of one per frame. The one exception is a
//! run of at most [`INLINE_RUN_MAX`] frames on a network whose thread
//! has nothing queued or in flight, which the caller sends itself, one
//! `send_to` per datagram — forwarding a token must not cost a thread
//! wake-up. Either way a network's datagrams reach each peer in
//! submission order: the token never overtakes the data it covers. A
//! send that would block is the network thread's to wait out
//! (`POLLOUT`); it is never a dropped datagram and never a stalled
//! driver. Any other failure is the loss of that one datagram (or
//! train) to that one peer — the fan-out goes on — and a train the
//! kernel refuses is sent again one datagram per frame.

use std::collections::VecDeque;
use std::io::{self, IoSlice};
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
/// for recovery encapsulation), and so the longest train a read can
/// return whole.
const MAX_DATAGRAM: usize = 64 * 1024;

/// Most frames one segment train carries: the lowest
/// `UDP_MAX_SEGMENTS` of the kernels that have `UDP_SEGMENT`.
const TRAIN_MAX_SEGMENTS: usize = 64;

/// Most bytes one segment train carries: the largest UDP payload over
/// IPv4 — the kernel builds a train as one datagram before cutting it.
const TRAIN_MAX_BYTES: usize = 65_507;

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

    /// Sends one train (see [`for_each_train`]) to `to`: one datagram
    /// the kernel cuts into the train's frames — or, for a lone frame
    /// and for a train the kernel refuses, one datagram per frame. A
    /// full socket is waited out and the send resumed where it
    /// stopped; any other failure is the loss of that datagram, which
    /// the protocol repairs. Returns `false` when the transport stopped
    /// during a wait.
    fn send_train(&self, to: SocketAddr, train: &[IoSlice<'_>]) -> bool {
        let mut whole = train.len() > 1;
        let mut at = 0;
        while at < train.len() {
            let sent = if whole {
                sys::send_segments(&self.socket, to, &train[at..])
            } else {
                self.socket.send_to(&train[at], to).map(|_| 1)
            };
            match sent {
                Ok(frames) => at += frames,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !self.wait_writable() {
                        return false;
                    }
                }
                // Refused (no checksum offload, a segment above the
                // path MTU, ...): this train only goes frame by frame.
                Err(_) if whole => whole = false,
                Err(_) => at += 1,
            }
        }
        true
    }
}

/// Cuts `frames` into segment trains, in order, and hands each to
/// `send` with its destination and its frames as iovecs — built on this
/// function's stack: cutting allocates nothing. Returns `false` as soon
/// as `send` does.
///
/// A train is a maximal run of consecutive frames with the same
/// destination, every one as long as the first except a shorter last
/// one, capped at 64 frames (the lowest `UDP_MAX_SEGMENTS` of the
/// kernels that have `UDP_SEGMENT`) and at one UDP datagram's 65,507
/// bytes. An empty frame, or one no frame can follow, is a train of
/// one.
pub fn for_each_train<'a>(
    frames: &'a [(Destination, Bytes)],
    mut send: impl FnMut(&Destination, &[IoSlice<'a>]) -> bool,
) -> bool {
    let mut iov = [IoSlice::new(&[]); TRAIN_MAX_SEGMENTS];
    let mut rest = frames;
    while let Some((dst, first)) = rest.first() {
        let (size, mut len, mut bytes) = (first.len(), 0, 0);
        for (slot, (next, frame)) in iov.iter_mut().zip(rest) {
            let joins = next == dst
                && !frame.is_empty()
                && frame.len() <= size
                && bytes + frame.len() <= TRAIN_MAX_BYTES;
            if len > 0 && !joins {
                break;
            }
            *slot = IoSlice::new(frame);
            len += 1;
            bytes += frame.len();
            if frame.len() < size {
                break; // a shorter frame ends its train
            }
        }
        if !send(dst, &iov[..len]) {
            return false;
        }
        rest = &rest[len..];
    }
    true
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

    /// Where `node` listens on network `net`: `None` for a node the
    /// topology does not have, whose datagrams are lost like any other.
    fn addr(&self, node: NodeId, net: usize) -> Option<SocketAddr> {
        self.topology.addrs.get(node.index()).map(|row| row[net])
    }

    /// Sends `payload` on network `net` to each node `dst` stands for,
    /// one `send_to` each. A datagram that fails is lost to that one
    /// peer and the fan-out goes on; only a full socket stops it, and
    /// the error is the index of the datagram that did not go, so the
    /// send resumes exactly there.
    fn transmit(&self, net: usize, dst: &Destination, payload: &[u8]) -> Result<(), usize> {
        let socket = &self.links[net].socket;
        for (i, node) in self.targets(dst).iter().enumerate() {
            let Some(to) = self.addr(*node, net) else { continue };
            if socket.send_to(payload, to).is_err_and(|e| e.kind() == io::ErrorKind::WouldBlock) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// A network thread: transmits what the driver queues, in order,
    /// train by train.
    fn run_link(&self, net: usize) {
        let link = &self.links[net];
        let mut batch = VecDeque::new();
        while link.take(&mut batch) {
            // A train reaches every peer before the next train starts,
            // so each peer gets this network's frames in submission
            // order, and the token after the data it covers.
            let running = for_each_train(batch.make_contiguous(), |dst, train| {
                self.targets(dst)
                    .iter()
                    .filter_map(|node| self.addr(*node, net))
                    .all(|to| link.send_train(to, train))
            });
            batch.clear();
            if !running {
                return;
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
            // A kernel that cannot deliver trains whole splits them
            // itself, so the reader sees the same datagrams either way.
            let _ = sys::enable_gro(socket);
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

    /// Submits one contiguous same-network run of frames, all of them:
    /// sent, or queued for the network thread, which does not give up
    /// on them.
    fn send_run(&self, net: NetworkId, frames: &[SendFrame]) {
        let link = &self.shared.links[net.index()];
        if frames.len() > INLINE_RUN_MAX || !link.idle() {
            link.enqueue(frames.iter().map(|f| (f.dst, f.payload.clone())));
            return;
        }
        for (i, f) in frames.iter().enumerate() {
            if let Err(at) = self.shared.transmit(net.index(), &f.dst, &f.payload) {
                self.hand_over(net, &frames[i..], at);
                return;
            }
        }
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
                    let Ok((len, segment)) = sys::recv_segments(socket, &mut drain.scratch) else {
                        break;
                    };
                    let datagram = &drain.scratch[..len];
                    // A train delivered whole splits back into the
                    // datagrams it was sent as.
                    match segment {
                        Some(size) => datagram.chunks(size.get()).for_each(|f| arena.push(f)),
                        None => arena.push(datagram),
                    }
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
        self.send_run(net, &[SendFrame { net, dst, payload }]);
        Ok(())
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
        let total = batch.remaining();
        while !batch.is_empty() {
            let pending = batch.pending();
            let net = pending[0].net;
            let run = pending.iter().take_while(|f| f.net == net).count();
            self.send_run(net, &pending[..run]);
            batch.advance(run);
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

    /// A peer the kernel will not send to (port 0: `EINVAL`) loses its
    /// own datagrams and no one else's: the broadcast still reaches the
    /// peer after it, sent inline by the caller and sent as a train by
    /// the network thread.
    #[test]
    fn a_refused_peer_does_not_silence_the_broadcast_for_the_others() {
        let bind = || UdpSocket::bind("127.0.0.1:0").unwrap();
        let (sa, sc) = (bind(), bind());
        let refused = SocketAddr::from(([127, 0, 0, 1], 0));
        let topology = UdpTopology::new(vec![
            vec![sa.local_addr().unwrap()],
            vec![refused],
            vec![sc.local_addr().unwrap()],
        ]);
        let a = UdpTransport::from_sockets(NodeId::new(0), topology.clone(), vec![sa]).unwrap();
        let c = UdpTransport::from_sockets(NodeId::new(2), topology, vec![sc]).unwrap();
        let net = NetworkId::new(0);

        a.send(net, Destination::Broadcast, numbered(0)).expect("a refused datagram is loss");
        assert_eq!(numbers(&receive(&c, 1), 0), [0], "inline broadcast");

        let mut run = SendBatch::new();
        for i in 1..=40 {
            run.push(net, Destination::Broadcast, numbered(i));
        }
        assert_eq!(a.send_batch(&mut run).unwrap(), 40);
        assert_eq!(numbers(&receive(&c, 40), 0), (1..=40).collect::<Vec<_>>(), "queued run");
    }

    /// Frame `i`, `len` (≥ 2) bytes long: `i`, then its low byte.
    fn sized(i: u16, len: usize) -> Bytes {
        let mut frame = vec![i as u8; len];
        frame[..2].copy_from_slice(&i.to_be_bytes());
        Bytes::from(frame)
    }

    /// What a [`sized`] frame says about itself: its number and length,
    /// after checking the rest of it.
    fn label(frame: &[u8]) -> (u16, usize) {
        let i = u16::from_be_bytes([frame[0], frame[1]]);
        assert!(frame[2..].iter().all(|b| *b == i as u8), "frame {i} arrived damaged");
        (i, frame.len())
    }

    fn labels(frames: &[(NetworkId, Bytes)], net: u8) -> Vec<(u16, usize)> {
        frames.iter().filter(|(n, _)| n.as_u8() == net).map(|(_, d)| label(d)).collect()
    }

    #[test]
    fn trains_are_cut_at_a_new_destination_a_longer_frame_and_the_caps() {
        let (all, one) = (Destination::Broadcast, Destination::Node(NodeId::new(1)));
        let mut frames: Vec<(Destination, Bytes)> =
            [(all, 300), (all, 300), (all, 200), (all, 300), (all, 400), (one, 400), (one, 0)]
                .into_iter()
                .chain([(one, 5), (all, 100)])
                .chain(std::iter::repeat_n((all, 10), 70))
                .chain(std::iter::repeat_n((all, 1_400), 47))
                .map(|(dst, len)| (dst, Bytes::from(vec![0; len])))
                .collect();
        let mut cut = Vec::new();
        assert!(for_each_train(&frames, |dst, train| {
            cut.push((*dst, train.len(), train[0].len(), train[train.len() - 1].len()));
            true
        }));
        let want = [
            (all, 3, 300, 200), // a shorter frame ends its train
            (all, 1, 300, 300), // a longer one starts the next
            (all, 1, 400, 400), // a new destination too
            (one, 1, 400, 400),
            (one, 1, 0, 0), // an empty frame is a train of one
            (one, 1, 5, 5),
            (all, 2, 100, 10),
            (all, 64, 10, 10), // UDP_MAX_SEGMENTS
            (all, 5, 10, 10),
            (all, 46, 1_400, 1_400), // one datagram's 65,507 bytes
            (all, 1, 1_400, 1_400),
        ];
        assert_eq!(cut, want);

        let mut trains = 0;
        assert!(!for_each_train(&frames, |_, _| {
            trains += 1;
            false
        }));
        assert_eq!(trains, 1, "cutting stops when the sender does");
        frames.clear();
        assert!(for_each_train(&frames, |_, _| unreachable!("no frames, no train")));
    }

    /// Every shape of run the transmitter cuts into trains: each peer
    /// gets exactly its frames, whole, in submission order per network.
    #[test]
    fn trains_reach_every_peer_whole_and_in_submission_order() {
        let mut ts = UdpTopology::bind_ephemeral(3, 2).expect("bind").into_transports().unwrap();
        let c = ts.remove(2);
        let b = ts.remove(1);
        let a = ts.remove(0);
        let all = Destination::Broadcast;
        let (to_b, to_c) = (Destination::Node(NodeId::new(1)), Destination::Node(NodeId::new(2)));
        let rounds: [Vec<(Destination, usize)>; 5] = [
            // A shorter frame ends a train; a longer one starts the next.
            [300, 300, 300, 200, 300, 300, 500, 500, 100, 100, 100].map(|len| (all, len)).to_vec(),
            // More frames than one train carries.
            vec![(all, 120); 100],
            // More bytes than one datagram carries.
            vec![(all, 1_400); 60],
            // Broadcast and unicast interleaved.
            (0..30).map(|i| ([all, all, to_b, to_c][i % 4], 200)).collect(),
            // A token right behind its train, twice.
            [vec![(all, 256); 20], vec![(to_b, 40)], vec![(all, 256); 20], vec![(to_c, 40)]]
                .concat(),
        ];
        let mut next = 0u16;
        for (round, script) in rounds.iter().enumerate() {
            let mut batch = SendBatch::new();
            // want[peer][net]: what peer 1 + `peer` must see on `net`.
            let mut want = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
            for net in 0..2u8 {
                for &(dst, len) in script {
                    batch.push(NetworkId::new(net), dst, sized(next, len));
                    for (peer, seen) in want.iter_mut().enumerate() {
                        if dst == all || dst == Destination::Node(NodeId::new(peer as u16 + 1)) {
                            seen[net as usize].push((next, len));
                        }
                    }
                    next += 1;
                }
            }
            assert_eq!(a.send_batch(&mut batch).unwrap(), batch.len());
            for (peer, t) in [&b, &c].into_iter().enumerate() {
                let got = receive(t, want[peer][0].len() + want[peer][1].len());
                for net in 0..2 {
                    assert_eq!(
                        labels(&got, net),
                        want[peer][net as usize],
                        "round {round}, node {}, network {net}",
                        peer + 1
                    );
                }
            }
        }
    }

    /// A peer that never asked for `UDP_GRO` — a plain socket, an older
    /// kernel — gets a train as the datagrams it was cut from.
    #[test]
    fn a_socket_without_gro_receives_a_train_as_its_datagrams() {
        let mut bound = UdpTopology::bind_ephemeral(2, 1).expect("bind");
        let plain = bound.sockets.remove(1).remove(0);
        plain.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let a = UdpTransport::from_sockets(NodeId::new(0), bound.topology, bound.sockets.remove(0))
            .unwrap();
        let script: Vec<(u16, usize)> =
            (0..11).map(|i| (i, if i < 10 { 300 } else { 100 })).collect();
        let mut batch = SendBatch::new();
        for &(i, len) in &script {
            batch.push(NetworkId::new(0), Destination::Broadcast, sized(i, len));
        }
        a.send_batch(&mut batch).unwrap();
        let mut buf = [0u8; MAX_DATAGRAM];
        let got: Vec<(u16, usize)> = script
            .iter()
            .map(|_| {
                let len = plain.recv(&mut buf).expect("a datagram per frame");
                label(&buf[..len])
            })
            .collect();
        assert_eq!(got, script);
    }

    #[test]
    fn a_train_crosses_ipv6_loopback() {
        let bind = || UdpSocket::bind("[::1]:0");
        let (Ok(sa), Ok(sb)) = (bind(), bind()) else {
            eprintln!("skipped: [::1] cannot be bound here");
            return;
        };
        let topology =
            UdpTopology::new(vec![vec![sa.local_addr().unwrap()], vec![sb.local_addr().unwrap()]]);
        let a = UdpTransport::from_sockets(NodeId::new(0), topology.clone(), vec![sa]).unwrap();
        let b = UdpTransport::from_sockets(NodeId::new(1), topology, vec![sb]).unwrap();
        let net = NetworkId::new(0);
        let mut want: Vec<(u16, usize)> = (0..40).map(|i| (i, 1_000)).collect();
        want.extend([(40, 500), (41, 40)]);
        let mut batch = SendBatch::new();
        for &(i, len) in &want {
            let dst =
                if i == 41 { Destination::Node(NodeId::new(1)) } else { Destination::Broadcast };
            batch.push(net, dst, sized(i, len));
        }
        a.send_batch(&mut batch).unwrap();
        assert_eq!(labels(&receive(&b, want.len()), 0), want);
    }

    /// The fallback, driven by a train the kernel really refuses: more
    /// segments than any kernel's `UDP_MAX_SEGMENTS` (64, later 128).
    #[test]
    fn a_train_the_kernel_refuses_goes_frame_by_frame() {
        let mut ts = UdpTopology::bind_ephemeral(2, 1).expect("bind").into_transports().unwrap();
        let b = ts.remove(1);
        let a = ts.remove(0);
        let to = b.topology().addr(NodeId::new(1), NetworkId::new(0));
        let frames: Vec<Bytes> = (0..150).map(|i| sized(i, 8)).collect();
        let train: Vec<IoSlice<'_>> = frames.iter().map(|f| IoSlice::new(f)).collect();
        let link = &a.shared.links[0];

        let refusal = sys::send_segments(&link.socket, to, &train).expect_err("too long a train");
        assert_ne!(refusal.kind(), io::ErrorKind::WouldBlock);
        assert!(link.send_train(to, &train));
        let want: Vec<(u16, usize)> = (0..150).map(|i| (i, 8)).collect();
        assert_eq!(labels(&receive(&b, want.len()), 0), want);
    }
}
